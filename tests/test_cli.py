"""CLI exit codes, reports, generation, and the theorem pipelines."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import chain
from roughdom import documents as docs
from roughdom.cli import main
from roughdom.cfspace import CFSpace, validate_cf
from roughdom.gaspace import GASpace
from roughdom.relation import identity_relation
from roughdom.represent import induce_cf_from_poset


@pytest.fixture
def chain3_paths(tmp_path, chain3):
    poset_path = tmp_path / "chain3.poset.json"
    docs.write_document(poset_path, docs.poset_to_doc(chain3))
    space_path = tmp_path / "chain3.space.json"
    docs.write_document(space_path,
                        docs.space_to_doc(induce_cf_from_poset(chain3).space))
    return poset_path, space_path


def test_validate_exit_codes(tmp_path, chain3_paths):
    poset_path, space_path = chain3_paths
    assert main(["validate", str(poset_path)]) == 0
    assert main(["validate", str(space_path)]) == 0

    bad_space = CFSpace(
        GASpace(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")]),
        [["b"]])
    bad_path = tmp_path / "bad.space.json"
    docs.write_document(bad_path, docs.space_to_doc(bad_space))
    assert main(["validate", str(bad_path)]) == 1

    truncated = tmp_path / "t.space.json"
    truncated.write_text("{\"universe\"", encoding="utf-8")
    assert main(["validate", str(truncated)]) == 2


def test_machine_report_shape(tmp_path, chain3_paths, capsys):
    _, space_path = chain3_paths
    assert main(["--format", "machine", "--seed", "5",
                 "validate", str(space_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    entry = json.loads(out[-1])
    assert entry["check"] == "cf-admissibility"
    assert entry["status"] == "pass"
    assert entry["seed"] == 5
    assert "timing" in entry and "caps" in entry


def test_closed_sets_listing_and_dot(tmp_path, chain3_paths, capsys):
    _, space_path = chain3_paths
    dot_path = tmp_path / "cs.dot"
    assert main(["closed-sets", str(space_path), "--dot", str(dot_path)]) == 0
    out = capsys.readouterr().out
    assert "{0}" in out and "{0,1}" in out and "{0,1,2}" in out
    dot = dot_path.read_text(encoding="utf-8")
    assert dot.count("[label=") == 3
    assert dot.count("->") == 2


@pytest.mark.parametrize("argv", [
    ["closed-sets", "{space}", "--dot", "{tmp}"],
    ["closed-sets", "{space}", "--dot", "{tmp}/missing/x.dot"],
    ["gen", "posets", "--max-size", "1", "--out", "{space}"],
    ["gen", "posets", "--max-size", "1", "--out", "{space}/below"],
])
def test_unwritable_outputs_are_malformed(tmp_path, chain3_paths, argv, capsys):
    _, space_path = chain3_paths
    argv = [a.format(space=space_path, tmp=tmp_path) for a in argv]
    assert main(["--format", "machine"] + argv) == 2
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["status"] for r in records] == ["error"]


def test_check_pipelines(chain3_paths):
    poset_path, space_path = chain3_paths
    for theorem in ("rep1", "rep2", "rep3", "rep4"):
        assert main(["check", theorem, str(poset_path)]) == 0
    assert main(["check", "self-iso", str(space_path)]) == 0
    assert main(["check", "roundtrip-omega", str(poset_path), str(poset_path)]) == 0


def test_self_iso_reads_witness_relations_on_reordered_families(tmp_path, chain3_paths):
    # every relation in a witness document carries its own inline spaces;
    # one that lists the family in reverse is still a relation on the space
    _, space_path = chain3_paths
    space = docs.load_space(space_path)
    flipped = CFSpace(space.base, tuple(reversed(space.family)))
    for sp in (space, flipped):
        validate_cf(sp)
    doc = {"relations": [docs.relation_to_doc(identity_relation(sp)) for sp in (space, flipped)],
           "separators": [[sorted(M) for M in space.family]] * 2}
    witness_path = tmp_path / "chain3.witness.json"
    docs.write_document(witness_path, doc)
    assert main(["check", "self-iso", str(space_path), str(witness_path)]) == 0


def test_check_functors_and_equivalence(tmp_path, chain2):
    p2 = tmp_path / "c2.poset.json"
    docs.write_document(p2, docs.poset_to_doc(chain2))
    p1 = tmp_path / "c1.poset.json"
    docs.write_document(p1, docs.poset_to_doc(chain(1)))
    assert main(["check", "functor-phi", str(p1), str(p2)]) == 0
    assert main(["check", "functor-psi", str(p1), str(p2)]) == 0
    assert main(["check", "equivalence", str(p1), str(p2)]) == 0


def test_check_roundtrip_rel_map(tmp_path, chain2):
    space = induce_cf_from_poset(chain2).space
    from roughdom.cfspace import validate_cf
    from roughdom.relation import identity_relation

    validate_cf(space)
    rel_path = tmp_path / "i.rel.json"
    docs.write_document(rel_path, docs.relation_to_doc(identity_relation(space)))
    assert main(["check", "roundtrip-rel-map", str(rel_path)]) == 0


def test_check_roundtrip_rel_map_on_inadmissible_space_fails(tmp_path):
    bad = CFSpace(
        GASpace(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")]),
        [["b"]])
    rel_path = tmp_path / "bad.rel.json"
    docs.write_document(rel_path, {"source": docs.space_to_doc(bad),
                                   "target": docs.space_to_doc(bad), "pairs": []})
    assert main(["validate", str(rel_path)]) == 1
    assert main(["check", "roundtrip-rel-map", str(rel_path)]) == 1


@pytest.mark.parametrize("name, content", [
    ("x.poset.json", b"\xff\xfe{}"),
    ("x.poset.json", b"[" * 100000 + b"]" * 100000),
    ("x.rel.json", b'{"source": "\\u0000", "target": "\\u0000", "pairs": []}'),
], ids=["not-utf8", "deeply-nested", "nul-byte-space-path"])
def test_undecodable_documents_are_malformed(tmp_path, name, content, capsys):
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 2
    assert main(["check", "rep1", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_check_errors(chain3_paths):
    poset_path, _ = chain3_paths
    assert main(["check", "no-such-theorem", str(poset_path)]) == 2
    assert main(["check", "roundtrip-omega", str(poset_path)]) == 2  # arity
    assert main(["check", "rep1", "/nonexistent.poset.json"]) == 2


def test_gen_posets_counts(tmp_path):
    out = tmp_path / "corpus"
    assert main(["gen", "posets", "--max-size", "4", "--out", str(out)]) == 0
    by_size = {}
    for f in out.iterdir():
        size = int(f.name.split("_")[1])
        by_size[size] = by_size.get(size, 0) + 1
    assert by_size == {1: 1, 2: 2, 3: 5, 4: 16}


def test_gen_spaces_counts(tmp_path):
    out = tmp_path / "spaces"
    assert main(["gen", "spaces", "--max-size", "3", "--out", str(out)]) == 0
    induced = [f for f in out.iterdir() if "random" not in f.name]
    assert len(induced) == 1 + 2 + 5


def test_gen_random_spaces_need_seed(tmp_path):
    out = tmp_path / "spaces"
    assert main(["--seed", "9", "gen", "spaces", "--max-size", "2",
                 "--out", str(out), "--random-count", "3"]) == 0
    randoms = [f for f in out.iterdir() if "random" in f.name]
    assert len(randoms) == 3
    for f in randoms:
        assert main(["validate", str(f)]) == 0


def test_gen_relations(tmp_path):
    out = tmp_path / "rels"
    assert main(["gen", "relations", "--max-size", "2", "--out", str(out)]) == 0
    files = sorted(out.iterdir())
    assert len(files) == 3
    for f in files:
        assert main(["validate", str(f)]) == 0


def test_module_entry_point(tmp_path, chain3_paths):
    poset_path, _ = chain3_paths
    env_path = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "roughdom", "validate", str(poset_path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin:/usr/local/bin"})
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_oracle_flag_crosschecks(chain3_paths, capsys):
    poset_path, _ = chain3_paths
    assert main(["--oracle", "--format", "machine",
                 "check", "rep1", str(poset_path)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    checks = {e["check"]: e["status"] for e in lines}
    assert checks.get("oracle-crosscheck") == "pass"


@pytest.mark.parametrize("theorem", ["rep1", "rep2", "rep3", "rep4"])
def test_oracle_runs_keep_the_exit_codes(theorem, tmp_path, chain3_paths, capsys):
    poset_path, _ = chain3_paths
    truncated = tmp_path / "t.poset.json"
    truncated.write_text("{\"elements\"", encoding="utf-8")
    assert main(["--oracle", "check", theorem, str(poset_path)]) == 0
    # the literal forms stop at cap_oracle: a check failure, not a crash
    assert main(["--oracle", "--cap-oracle", "2", "check", theorem, str(poset_path)]) == 1
    assert main(["--oracle", "check", theorem, str(truncated)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_gen_random_without_seed_is_malformed(tmp_path):
    out = tmp_path / "spaces"
    assert main(["gen", "spaces", "--max-size", "2",
                 "--out", str(out), "--random-count", "3"]) == 2


def test_cap_universe_flag_reaches_validation(tmp_path):
    atoms = [f"u{i}" for i in range(5)]
    doc = {"universe": atoms,
           "relation": [[a, a] for a in atoms],
           "family": [[atoms[0]]]}
    p = tmp_path / "big.space.json"
    docs.write_document(p, doc)
    assert main(["--cap-universe", "4", "validate", str(p)]) == 0
    assert main(["validate", str(p)]) == 0


def test_oracle_flag_reaches_validation(chain3_paths, capsys):
    _, space_path = chain3_paths
    space = docs.load_space(space_path)

    def checked(argv):
        assert main(["--format", "machine", *argv, "validate", str(space_path)]) == 0
        entry = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        return entry["detail"]

    assert checked([]) == f"checked={len(space.family)} exhaustive=False"
    chunks = sum(2 ** len(space.upper_of_member(F)) for F in space.family)
    assert checked(["--oracle"]) == f"checked={chunks} exhaustive=True"
    # the oracle stays bounded by the universe cap
    assert main(["--oracle", "--cap-universe", "2", "validate", str(space_path)]) == 1


@pytest.mark.parametrize("flag", ["--cap-universe", "--cap-family", "--cap-hom",
                                  "--cap-iso", "--cap-oracle"])
@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_cap_flags_reject_non_positive_values(tmp_path, flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag, value, "gen", "posets", "--out", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_non_string_atoms_are_malformed(tmp_path):
    space = tmp_path / "bad.space.json"
    docs.write_document(space, {"universe": ["a"], "relation": [[["x"], "a"]],
                                "family": [["a"]]})
    poset = tmp_path / "bad.poset.json"
    docs.write_document(poset, {"elements": ["a"], "leq": [["a", 1]]})
    assert main(["validate", str(space)]) == 2
    assert main(["validate", str(poset)]) == 2


def test_closed_sets_machine_output_is_json_lines(chain3_paths, capsys):
    _, space_path = chain3_paths
    assert main(["--format", "machine", "closed-sets", str(space_path)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    (entry,) = [r for r in records if r["check"] == "closed-sets"]
    assert entry["listing"] == [["0"], ["0", "1"], ["0", "1", "2"]]


def test_machine_record_names_every_cap(chain3_paths, capsys):
    _, space_path = chain3_paths
    assert main(["--format", "machine", "--cap-iso", "5", "--cap-oracle", "7",
                 "validate", str(space_path)]) == 0
    entry = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert entry["caps"] == {"universe": 16, "family": 64, "hom": 20000,
                             "iso": 5, "oracle": 7, "cells": 16,
                             "members": 1 << 19}


@pytest.mark.parametrize("theorem", ["functor-phi", "functor-psi", "equivalence"])
def test_category_checks_without_documents_are_malformed(theorem, capsys):
    assert main(["check", theorem]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "posets", "--max-size", "-1"],
    ["gen", "posets", "--max-size", "0"],
    ["--seed", "1", "gen", "spaces", "--random-count", "-5"],
], ids=["max-size-negative", "max-size-zero", "random-count-negative"])
def test_gen_rejects_empty_or_negative_sizes(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert not (tmp_path / "c").exists()
    assert "Traceback" not in capsys.readouterr().err


def _selector_doc(path, n):
    # one member, the whole universe, selected for the whole universe
    atoms = [f"u{i}" for i in range(n)]
    docs.write_document(path, {
        "space": {"universe": atoms, "relation": [[a, a] for a in atoms],
                  "family": [atoms]},
        "entries": [{"K": atoms, "M": [atoms]}]})
    return str(path)


def test_selector_documents_are_capped_before_materializing(tmp_path, capsys):
    big = _selector_doc(tmp_path / "u17.sel.json", 17)
    assert main(["--format", "machine", "validate", big]) == 1
    entry = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert entry["detail"].startswith("SizeCapExceeded")
    three = _selector_doc(tmp_path / "u3.sel.json", 3)
    two = _selector_doc(tmp_path / "u2.sel.json", 2)
    assert main(["validate", three]) == 0
    assert main(["--cap-universe", "2", "validate", three]) == 1
    assert main(["--cap-universe", "2", "validate", two]) == 0


def test_rep1_on_a_30_chain_fails_before_building_its_family(tmp_path):
    # the induced space would have 2^30 - 1 members
    path = tmp_path / "chain30.poset.json"
    docs.write_document(path, docs.poset_to_doc(chain(30)))
    env_path = str(Path(__file__).resolve().parents[1] / "src")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "roughdom", "--format", "machine", "check", "rep1",
         str(path)],
        capture_output=True, text=True, timeout=10,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin:/usr/local/bin"})
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 1
    (record,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert record["status"] == "fail"
    assert record["detail"].startswith("SizeCapExceeded")
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0
