"""Command-line front end.

Four commands: ``validate`` runs the admissibility check matching the
document type, ``closed-sets`` lists the closed-set poset of a space
(optionally as a DOT Hasse diagram), ``check`` runs one of the named
theorem pipelines, and ``gen`` writes a deterministic corpus.  Exit
codes are the contract: 0 pass, 1 a validation or check failure,
2 malformed input.  Reports carry the seed and caps for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import documents as docs
from .category import check_equivalence_evidence, check_functor_laws
from .cfspace import CFSpace, cf_closed_sets, validate_cf
from .config import RunConfig
from .corpus import all_posets, random_cf_space, seeded_rng
from .errors import (
    ArityMismatch,
    IOFailure,
    ParseFailure,
    RoughdomError,
    UnknownTheorem,
)
from .gaspace import GASpace
from .poset import monotone_maps, order_isomorphism
from .relation import from_map, identity_relation, to_map, validate_approximable
from .represent import (
    closed_sets_iso,
    fs_witness_from_domain,
    induce_cf_from_poset,
    map_from_omega,
    omega_from_map,
    space_self_iso,
    tb_witness_from_bf,
)
from .witness import check_tb, classify_space, delta_family

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_MALFORMED = 2

# the RunConfig caps that have a --cap-* flag
CAP_FLAGS = ("universe", "family", "hom", "iso", "oracle")
# every RunConfig cap, by the name it has in report records
CAPS = CAP_FLAGS + ("cells", "members")

THEOREMS = ("rep1", "rep2", "rep3", "rep4", "roundtrip-rel-map",
            "roundtrip-omega", "functor-phi", "functor-psi",
            "equivalence", "self-iso")


class Reporter:
    def __init__(self, fmt, config):
        self.fmt = fmt
        self.config = config
        self.entries = []

    def add(self, check, status, counterexample=None, timing=0.0, detail=None,
            listing=None):
        entry = {
            "check": check,
            "status": status,
            "timing": round(timing, 6),
            "seed": self.config.seed,
            "caps": {name: getattr(self.config, f"cap_{name}") for name in CAPS},
        }
        if counterexample is not None:
            entry["counterexample"] = counterexample
        if detail is not None:
            entry["detail"] = detail
        if listing is not None:
            entry["listing"] = listing
        self.entries.append(entry)

    def emit(self, stream=None):
        stream = stream or sys.stdout
        for e in self.entries:
            if self.fmt == "machine":
                stream.write(json.dumps(e, default=_jsonable) + "\n")
            else:
                line = f"[{e['status']:>4}] {e['check']} ({e['timing']:.3f}s)"
                if "counterexample" in e:
                    line += f" counterexample={e['counterexample']!r}"
                if "detail" in e:
                    line += f" {e['detail']}"
                stream.write(line + "\n")
                for item in e.get("listing", ()):
                    stream.write("{" + ",".join(item) + "}\n")


def _jsonable(value):
    if isinstance(value, frozenset):
        return sorted(value, key=repr)
    if isinstance(value, (set, tuple)):
        return list(value)
    return repr(value)


def _sorted_sets(sets, universe):
    idx = {x: i for i, x in enumerate(universe)}
    return [sorted(s, key=idx.__getitem__) for s in sets]


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_validate(args, config, reporter):
    kind = docs.document_kind(args.path)
    t0 = time.perf_counter()
    if kind == "poset":
        docs.load_poset(args.path, allow_covers=args.covers)
        reporter.add("poset-wellformed", "pass", timing=time.perf_counter() - t0)
        return EXIT_PASS
    if kind == "space":
        space = docs.load_space(args.path)
        if isinstance(space, GASpace):
            reporter.add("ga-space-wellformed", "pass", timing=time.perf_counter() - t0)
            return EXIT_PASS
        report = validate_cf(space, config=config)
        status = "pass" if report.ok else "fail"
        counter = None
        if report.counterexamples:
            F, K = report.counterexamples[0]
            counter = {"F": _sorted_sets([F], space.universe)[0],
                       "K": _sorted_sets([K], space.universe)[0]}
        elif not report.transitive:
            counter = "relation is not transitive"
        reporter.add("cf-admissibility", status, counter,
                     time.perf_counter() - t0,
                     detail=f"checked={report.checked} exhaustive={report.exhaustive}")
        return EXIT_PASS if report.ok else EXIT_FAIL
    if kind == "rel":
        rel = docs.load_relation(args.path)
        for side in (rel.source, rel.target):
            if not validate_cf(side, config=config).ok:
                reporter.add("relation-spaces", "fail",
                             timing=time.perf_counter() - t0)
                return EXIT_FAIL
        report = validate_approximable(rel)
        counter = None if report.ok else {"axiom": report.failing}
        reporter.add("relation-axioms", "pass" if report.ok else "fail",
                     counter, time.perf_counter() - t0)
        return EXIT_PASS if report.ok else EXIT_FAIL
    if kind == "witness":
        w = docs.load_witness(args.path)
        if not validate_cf(w.space, config=config).ok:
            reporter.add("witness-space", "fail", timing=time.perf_counter() - t0)
            return EXIT_FAIL
        cls = classify_space(w.space, w)
        reporter.add("witness-classification", "pass" if cls.fs else "fail",
                     timing=time.perf_counter() - t0,
                     detail=f"fs={cls.fs} strong_fs={cls.strong_fs} "
                            f"topological_fs={cls.topological_fs}")
        return EXIT_PASS if cls.fs else EXIT_FAIL
    if kind == "sel":
        sel = docs.load_selector(args.path, config)
        if not validate_cf(sel.space, config=config).ok:
            reporter.add("selector-space", "fail", timing=time.perf_counter() - t0)
            return EXIT_FAIL
        report = check_tb(sel, config)
        counter = None
        if report.failures:
            f = report.failures[0]
            counter = {"K": sorted(f.K, key=repr), "condition": f.condition}
        reporter.add("selector-admissibility", "pass" if report.ok else "fail",
                     counter, time.perf_counter() - t0)
        return EXIT_PASS if report.ok else EXIT_FAIL
    raise ParseFailure(f"unsupported document kind {kind!r}")


def cmd_closed_sets(args, config, reporter):
    space = docs.load_space(args.path)
    if not isinstance(space, CFSpace):
        raise ParseFailure("closed-sets needs a space document with a family")
    report = validate_cf(space, config=config)
    if not report.ok:
        reporter.add("cf-admissibility", "fail")
        return EXIT_FAIL
    t0 = time.perf_counter()
    cs = cf_closed_sets(space, config=config)
    if args.dot:
        docs.write_text(args.dot, docs.closed_sets_dot(cs))
    reporter.add("closed-sets", "pass", timing=time.perf_counter() - t0,
                 detail=f"count={len(cs)} cross_checked={cs.cross_checked}",
                 listing=_sorted_sets(cs.closed_sets, space.universe))
    return EXIT_PASS


def _oracle_crosscheck(posets, config, reporter):
    """Re-derive the finite collapses literally instead of trusting them.

    Runs under --oracle: way-below must agree with its directed-set
    definition and the continuity/algebraicity checks must pass in
    their literal forms on every loaded poset.
    """
    from .poset import is_algebraic_domain, is_continuous_domain, way_below

    t0 = time.perf_counter()
    for L in posets:
        for x in L.elements:
            for y in L.elements:
                if way_below(L, x, y) != way_below(L, x, y, oracle=True, config=config):
                    reporter.add("oracle-crosscheck", "fail",
                                 {"x": x, "y": y}, time.perf_counter() - t0)
                    return False
        if not (is_continuous_domain(L, config=config)
                and is_algebraic_domain(L, config=config)):
            reporter.add("oracle-crosscheck", "fail", timing=time.perf_counter() - t0)
            return False
    reporter.add("oracle-crosscheck", "pass", timing=time.perf_counter() - t0)
    return True


def cmd_check(args, config, reporter):
    name = args.theorem
    if name not in THEOREMS:
        raise UnknownTheorem(f"unknown theorem id {name!r}")
    t0 = time.perf_counter()
    ok = True
    detail = None
    loaded = []

    def _load_posets(paths, want, covers):
        """Load ``want`` poset documents, or one or more if ``want`` is None."""
        if (not paths) if want is None else len(paths) != want:
            raise ArityMismatch(f"expected {want or 'one or more'} poset "
                                f"document(s), got {len(paths)}")
        batch = [docs.load_poset(p, allow_covers=covers) for p in paths]
        loaded.extend(batch)
        return batch

    if name == "rep1":
        (L,) = _load_posets(args.inputs, 1, args.covers)
        iso = closed_sets_iso(L, config)
        detail = f"iso of size {len(iso)}"
    elif name == "rep2":
        (L,) = _load_posets(args.inputs, 1, args.covers)
        w_plain = fs_witness_from_domain(L, mode="plain", config=config)
        w_strong = fs_witness_from_domain(L, mode="strong", config=config)
        cls_p = classify_space(w_plain.space, w_plain)
        cls_s = classify_space(w_strong.space, w_strong)
        ok = cls_p.fs and cls_s.strong_fs
        detail = f"plain.fs={cls_p.fs} strong.strong_fs={cls_s.strong_fs}"
    elif name == "rep3":
        (L,) = _load_posets(args.inputs, 1, args.covers)
        w = fs_witness_from_domain(L, mode="bf", config=config)
        cls = classify_space(w.space, w)
        cs = cf_closed_sets(w.space, config=config)
        ok = cls.topological_fs and order_isomorphism(L, cs.poset, config) is not None
        detail = f"topological_fs={cls.topological_fs}"
    elif name == "rep4":
        (L,) = _load_posets(args.inputs, 1, args.covers)
        sel = tb_witness_from_bf(L, config=config)
        tb = check_tb(sel, config)
        family = delta_family(sel, config)
        cs = cf_closed_sets(sel.space, config=config)
        ok = tb.ok and order_isomorphism(L, cs.poset, config) is not None
        detail = f"tb={tb.ok} contractions={len(family)}"
    elif name == "roundtrip-rel-map":
        if len(args.inputs) != 1:
            raise ArityMismatch("roundtrip-rel-map takes one relation document")
        rel = docs.load_relation(args.inputs[0])
        if not all(validate_cf(side, config=config).ok
                   for side in (rel.source, rel.target)):
            reporter.add(name, "fail", timing=time.perf_counter() - t0,
                         detail="relation endpoints fail admissibility")
            return EXIT_FAIL
        f = to_map(rel, config)
        ok = from_map(f, rel.source, rel.target, config) == rel
    elif name == "roundtrip-omega":
        L1, L2 = _load_posets(args.inputs, 2, args.covers)
        ok = True
        count = 0
        for g in monotone_maps(L1, L2, config):
            count += 1
            omega = omega_from_map(g, config)
            if map_from_omega(omega, config) != g:
                ok = False
                break
        detail = f"maps={count}"
    elif name == "functor-phi":
        posets = _load_posets(args.inputs, None, args.covers)
        report = check_functor_laws("phi", posets, config=config)
        ok = report.ok
        detail = f"compositions={report.compositions_checked}"
    elif name == "functor-psi":
        posets = _load_posets(args.inputs, None, args.covers)
        induced = [induce_cf_from_poset(L, config) for L in posets]
        report = check_functor_laws("psi", induced, config=config)
        ok = report.ok
        detail = f"compositions={report.compositions_checked}"
    elif name == "equivalence":
        posets = _load_posets(args.inputs, None, args.covers)
        induced = [induce_cf_from_poset(L, config) for L in posets]
        rep_phi = check_equivalence_evidence("phi", posets, config=config)
        rep_psi = check_equivalence_evidence("psi", induced, config=config)
        ok = rep_phi.ok and rep_psi.ok
        detail = (f"phi=({rep_phi.full},{rep_phi.faithful},"
                  f"{rep_phi.essentially_surjective}) "
                  f"psi=({rep_psi.full},{rep_psi.faithful},"
                  f"{rep_psi.essentially_surjective})")
    elif name == "self-iso":
        if len(args.inputs) not in (1, 2):
            raise ArityMismatch("self-iso takes a space and an optional witness")
        space = docs.load_space(args.inputs[0])
        if not isinstance(space, CFSpace):
            raise ParseFailure("self-iso needs a space document with a family")
        if not validate_cf(space, config=config).ok:
            reporter.add(name, "fail", timing=time.perf_counter() - t0)
            return EXIT_FAIL
        witness = docs.load_witness(args.inputs[1], space) if len(args.inputs) == 2 else None
        result = space_self_iso(space, witness, config)
        detail = f"double universe of {len(result.double.space.universe)} closed sets"
    if config.oracle and loaded:
        ok = _oracle_crosscheck(loaded, config, reporter) and ok
    reporter.add(name, "pass" if ok else "fail", timing=time.perf_counter() - t0,
                 detail=detail)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_gen(args, config, reporter):
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IOFailure(f"cannot create {out}: {exc}") from exc
    t0 = time.perf_counter()
    counts = {}
    if args.kind == "posets":
        for size in range(1, args.max_size + 1):
            batch = all_posets(size, config)
            counts[size] = len(batch)
            for i, P in enumerate(batch):
                docs.write_document(out / f"poset_{size}_{i:03d}.poset.json",
                                    docs.poset_to_doc(P))
    elif args.kind == "spaces":
        total = 0
        for size in range(1, args.max_size + 1):
            for i, P in enumerate(all_posets(size, config)):
                ind = induce_cf_from_poset(P, config)
                docs.write_document(out / f"space_{size}_{i:03d}.space.json",
                                    docs.space_to_doc(ind.space))
                total += 1
            counts[size] = total
        if args.random_count:
            if config.seed is None:
                raise ParseFailure("randomized generation requires --seed")
            rng = seeded_rng(config.seed)
            for i in range(args.random_count):
                space = random_cf_space(rng, max_universe=args.max_size)
                docs.write_document(out / f"space_random_{i:03d}.space.json",
                                    docs.space_to_doc(space))
            counts["random"] = args.random_count
    elif args.kind == "relations":
        total = 0
        for size in range(1, args.max_size + 1):
            for i, P in enumerate(all_posets(size, config)):
                ind = induce_cf_from_poset(P, config)
                rel = identity_relation(ind.space)
                docs.write_document(out / f"rel_{size}_{i:03d}.rel.json",
                                    docs.relation_to_doc(rel))
                total += 1
        counts["identity"] = total
    else:
        raise ParseFailure(f"unknown corpus kind {args.kind!r}")
    reporter.add(f"gen-{args.kind}", "pass", timing=time.perf_counter() - t0,
                 detail=f"counts={counts}")
    return EXIT_PASS


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------

def _positive_int(text):
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="roughdom",
        description="validate, construct and check finite approximation-space domains")
    for name in CAP_FLAGS:
        parser.add_argument(f"--cap-{name}", type=_positive_int, default=None)
    parser.add_argument("--oracle", action="store_true",
                        help="evaluate order-theoretic checks and CF validation "
                             "by literal enumeration")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a document")
    p.add_argument("path")
    p.add_argument("--covers", action="store_true",
                   help="accept poset documents given by cover pairs")

    p = sub.add_parser("closed-sets", help="list the closed sets of a space")
    p.add_argument("path")
    p.add_argument("--dot", default=None, help="write a DOT Hasse diagram here")

    p = sub.add_parser("check", help="run a named theorem pipeline")
    p.add_argument("theorem")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--covers", action="store_true")

    p = sub.add_parser("gen", help="generate a deterministic corpus")
    p.add_argument("kind", choices=("posets", "spaces", "relations"))
    p.add_argument("--max-size", type=_positive_int, default=3)
    p.add_argument("--out", default="corpus")
    p.add_argument("--random-count", type=_non_negative_int, default=0)
    return parser


def _config_from_args(args):
    cfg = RunConfig()
    updates = {f"cap_{name}": getattr(args, f"cap_{name}") for name in CAP_FLAGS
               if getattr(args, f"cap_{name}") is not None}
    if args.oracle:
        updates["oracle"] = True
    if args.seed is not None:
        updates["seed"] = args.seed
    return cfg.with_updates(**updates) if updates else cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    reporter = Reporter(args.format, config)
    handlers = {
        "validate": cmd_validate,
        "closed-sets": cmd_closed_sets,
        "check": cmd_check,
        "gen": cmd_gen,
    }
    try:
        code = handlers[args.command](args, config, reporter)
    except (ParseFailure, IOFailure, UnknownTheorem, ArityMismatch) as exc:
        reporter.add(args.command, "error", detail=str(exc))
        reporter.emit()
        return EXIT_MALFORMED
    except RoughdomError as exc:
        reporter.add(args.command, "fail", detail=f"{type(exc).__name__}: {exc}")
        reporter.emit()
        return EXIT_FAIL
    reporter.emit()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
