"""Spans around the benchmark's own calls into roughdom.

``bind`` returns the library functions the workloads call.  Untraced,
they are the library's own function objects, so an untraced run pays
nothing for the tracing layer.  Traced, each call is wrapped in a span
named ``<module>.<function>`` after the ``src/roughdom`` module that
owns it.  A span records the item that caused it, its start and end, and
whether the call raised.  Spans are kept in memory and aggregated when
the run ends.

The benchmark's spans never nest (the benchmark makes one call at a
time and the library's internal calls are not spanned), so a span's
self time equals its duration and a layer's busy time is the sum of its
spans.  Work counts are read from the public return values, so a
speed-up can show as less work as well as less time.  There is no
queueing anywhere in the program, so no wait-time metric exists.
"""

from __future__ import annotations

import time
from functools import partial
from types import SimpleNamespace


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self):
        self.spans = []  # (cause, name, mode, start, end, ok)
        self.counts = {}
        self.cause = "setup"  # the item index, or "setup"

    def wrap(self, name, fn, mode=None, counts=()):
        spans = self.spans
        totals = self.counts

        def traced(*args, **kw):
            start = time.perf_counter()
            try:
                out = fn(*args, **kw)
            except BaseException:
                spans.append((self.cause, name, mode, start, time.perf_counter(), False))
                raise
            spans.append((self.cause, name, mode, start, time.perf_counter(), True))
            for key, measure in counts:
                totals[key] = totals.get(key, 0) + measure(out, *args)
            return out

        return traced

    def metrics(self):
        """Per-layer metrics, with every name of ``LAYER_METRICS`` present."""
        out = {key: 0.0 if unit == "s" else 0 for key, unit in LAYER_METRICS}
        for _, name, mode, start, end, ok in self.spans:
            out[f"{name}.s"] += end - start
            out[f"{name}.calls"] += 1
            if not ok:
                out[f"{name}.failed"] += 1
            if mode is not None:
                out[f"{name}.{mode}_s"] += end - start
        for key, value in self.counts.items():
            out[key] += value
        for ratio, (num, den) in RATIOS.items():
            out[ratio] = out[num] / out[den] if out[den] else 0.0
        return out


def _span(attr, name, counts=(), mode=None, call=None):
    return attr, name, counts, mode, call


# (attribute, span name, work counts, mode, how to call).  Work counts
# are (metric, measure(result, *args)).
SPANS = (
    _span("validate_cf", "cfspace.validate_cf",
          (("cfspace.validate_cf.chunks", lambda rep, *a: rep.checked),)),
    _span("cf_closed_sets", "cfspace.cf_closed_sets",
          (("cfspace.cf_closed_sets.closed", lambda cs, *a: len(cs)),
           ("cfspace.cf_closed_sets.subsets",
            lambda cs, space, *a: 1 << len(space.universe)))),
    _span("approximable_relations_between", "category.approximable_relations_between",
          (("category.approximable_relations_between.relations",
            lambda rels, *a: len(rels)),
           ("category.approximable_relations_between.candidates",
            lambda rels, i1, i2, *a: 1 << (len(i1.origin.elements)
                                           * len(i2.origin.elements))))),
    _span("check_functor_laws", "category.check_functor_laws",
          (("category.check_functor_laws.compositions",
            lambda rep, *a: rep.compositions_checked),)),
    _span("check_equivalence_evidence", "category.check_equivalence_evidence",
          (("category.check_equivalence_evidence.hom_pairs",
            lambda rep, *a: sum(sum(pair) for pair in rep.hom_set_sizes)),)),
    _span("compose", "relation.compose"),
    _span("to_map", "relation.to_map"),
    _span("from_map", "relation.from_map"),
    _span("induce_cf_from_poset", "represent.induce_cf_from_poset"),
    _span("omega_from_map", "represent.omega_from_map"),
    _span("map_from_omega", "represent.map_from_omega"),
    _span("closed_sets_iso", "represent.closed_sets_iso"),
    _span("fs_witness_from_domain", "represent.fs_witness_from_domain"),
    _span("tb_witness_from_bf", "represent.tb_witness_from_bf"),
    _span("space_self_iso", "represent.space_self_iso"),
    _span("classify_space", "witness.classify_space"),
    _span("check_tb", "witness.check_tb"),
    _span("delta_family", "witness.delta_family",
          (("witness.delta_family.maps", lambda fam, *a: len(fam)),)),
    _span("monotone_maps", "poset.monotone_maps",
          (("poset.monotone_maps.maps", lambda maps, *a: len(maps)),)),
    _span("order_isomorphism", "poset.order_isomorphism"),
    _span("way_below", "poset.way_below"),
    _span("way_below_oracle", "poset.way_below", mode="oracle",
          call=lambda fn: partial(fn, oracle=True)),
    _span("is_scott_continuous_oracle", "poset.is_scott_continuous",
          call=lambda fn: partial(fn, oracle=True)),
    _span("all_posets", "corpus.all_posets"),
)

# computed ratio -> (numerator, base); both are reported
RATIOS = {
    "cfspace.cf_closed_sets.yield":
        ("cfspace.cf_closed_sets.closed", "cfspace.cf_closed_sets.subsets"),
    "category.approximable_relations_between.yield":
        ("category.approximable_relations_between.relations",
         "category.approximable_relations_between.candidates"),
}


def _layer_metrics():
    out = {}
    for _, name, counts, mode, _ in SPANS:
        out[f"{name}.s"] = "s"
        out[f"{name}.calls"] = "count"
        out[f"{name}.failed"] = "count"
        if mode is not None:
            out[f"{name}.{mode}_s"] = "s"
        for key, _ in counts:
            out[key] = "count"
    for ratio in RATIOS:
        out[ratio] = "ratio"
    return tuple(out.items())


# every per-layer metric except trace.overhead_ratio, which the
# launcher computes from an untraced and a traced process
LAYER_METRICS = _layer_metrics()


def bind(tracer=None):
    """The library functions the workloads call, spanned when ``tracer`` is set."""
    from roughdom import category, cfspace, corpus, poset, relation, represent, witness

    modules = {"cfspace": cfspace, "category": category, "relation": relation,
               "represent": represent, "witness": witness, "poset": poset,
               "corpus": corpus}
    api = {}
    for attr, name, counts, mode, call in SPANS:
        module, function = name.split(".")
        fn = getattr(modules[module], function)
        if call is not None:
            fn = call(fn)
        api[attr] = fn if tracer is None else tracer.wrap(name, fn, mode, counts)
    return SimpleNamespace(**api)
