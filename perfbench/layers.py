"""The dagiso boundaries the traced run wraps, and the per-layer metrics
derived from them.

Layers are named after the modules: fields, points, ci, randomized, dag,
classify and cli. Counts and times are per public call of the workload
(the traced calls divided by their number); ratios are ratios.
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracing import AGGREGATE, COUNT, SPAN, YIELDS, Boundary, Tracer


def _order(args, _result) -> int:
    return len(args[0])


def _length(_args, result) -> int:
    return len(result)


def _found(_args, result) -> int:
    return result is not None


BOUNDARIES = (
    Boundary("fields.det", "dagiso.fields", "_det_mod", AGGREGATE, _order),
    Boundary("ci.imposed_minors", "dagiso.ci", "imposed_minors",
             SPAN, _length),
    Boundary("dag.dag_init", "dagiso.dag", "Dag.__init__", COUNT),
    Boundary("dag.pattern", "dagiso.dag", "pattern"),
    Boundary("points.sample", "dagiso.points", "sample_point"),
    Boundary("points.complete", "dagiso.points", "complete_point"),
    Boundary("points.principal", "dagiso.points", "principal_minors_nonzero"),
    Boundary("randomized.isomorphism_test", "dagiso.randomized",
             "isomorphism_test"),
    Boundary("randomized.equivalence_test", "dagiso.randomized",
             "equivalence_test"),
    Boundary("randomized.witness", "dagiso.randomized", "perm_witness",
             SPAN, _found),
    Boundary("randomized.lands_on", "dagiso.randomized", "_lands_on",
             AGGREGATE),
    Boundary("classify.classify_trees", "dagiso.classify", "classify_trees"),
    Boundary("classify.enumerate", "dagiso.classify", "enumerate_tree_dags",
             YIELDS),
    Boundary("classify.collect", "dagiso.classify", "_collect_entries",
             SPAN, _length),
    Boundary("classify.canonical", "dagiso.classify", "canonical_pattern_of"),
    Boundary("cli.main", "dagiso.cli", "main"),
)

COUNT_UNIT, TIME_UNIT, RATIO_UNIT = "count/call", "s/call", "ratio"

# name -> unit, in report order
METRICS: Dict[str, str] = {
    "randomized.witness_calls": COUNT_UNIT,
    "randomized.witness_self_s": TIME_UNIT,
    "randomized.witness_hit_ratio": RATIO_UNIT,
    "randomized.candidates": COUNT_UNIT,
    "randomized.lands_on_self_s": TIME_UNIT,
    "randomized.dets_per_candidate": RATIO_UNIT,
    "points.sample_calls": COUNT_UNIT,
    "points.sample_s": TIME_UNIT,
    "points.draws": COUNT_UNIT,
    "points.accept_ratio": RATIO_UNIT,
    "points.complete_self_s": TIME_UNIT,
    "points.principal_calls": COUNT_UNIT,
    "points.principal_self_s": TIME_UNIT,
    "ci.imposed_minors_calls": COUNT_UNIT,
    "ci.imposed_minors_s": TIME_UNIT,
    "ci.minors_built": COUNT_UNIT,
    "fields.det_calls": COUNT_UNIT,
    "fields.det_s": TIME_UNIT,
    "fields.det_order_mean": RATIO_UNIT,
    "dag.dags_built": COUNT_UNIT,
    "dag.pattern_calls": COUNT_UNIT,
    "dag.pattern_s": TIME_UNIT,
    "classify.trees_enumerated": COUNT_UNIT,
    "classify.collect_self_s": TIME_UNIT,
    "classify.patterns_distinct": COUNT_UNIT,
    "classify.canonical_calls": COUNT_UNIT,
    "classify.canonical_s": TIME_UNIT,
    "classify.pairwise_tests": COUNT_UNIT,
    "cli.calls": COUNT_UNIT,
    "cli.self_s": TIME_UNIT,
    "trace.overhead_ratio": RATIO_UNIT,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, calls: int,
                  overhead_ratio: float) -> Dict[str, Tuple[float, str]]:
    """Every metric of ``METRICS`` from one traced run of ``calls`` public
    calls. A ratio whose base is zero (the layer did no work) reads 0."""
    t = tracer.totals()
    zero = [0, 0.0, 0.0, 0]
    calls_of = {name: t.get(name, zero)[0] for name in
                {b.name for b in BOUNDARIES}}

    def total(name):
        return t.get(name, zero)[1]

    def self_s(name):
        return t.get(name, zero)[2]

    def units(name):
        return t.get(name, zero)[3]

    dets_in_lands_on = sum(
        agg[0] for (parent, name), agg in tracer.aggregates.items()
        if name == "fields.det" and isinstance(parent, tuple)
        and parent[1] == "randomized.lands_on")
    names = {s.id: s.name for s in tracer.spans}
    pairwise = sum(1 for s in tracer.spans
                   if s.name == "randomized.isomorphism_test"
                   and names.get(s.parent) == "classify.classify_trees")
    raw = {
        "randomized.witness_calls": calls_of["randomized.witness"],
        "randomized.witness_self_s": self_s("randomized.witness"),
        "randomized.witness_hit_ratio": _ratio(
            units("randomized.witness"), calls_of["randomized.witness"]),
        "randomized.candidates": calls_of["randomized.lands_on"],
        "randomized.lands_on_self_s": self_s("randomized.lands_on"),
        "randomized.dets_per_candidate": _ratio(
            dets_in_lands_on, calls_of["randomized.lands_on"]),
        "points.sample_calls": calls_of["points.sample"],
        "points.sample_s": total("points.sample"),
        "points.draws": calls_of["points.complete"],
        "points.accept_ratio": _ratio(calls_of["points.sample"],
                                      calls_of["points.complete"]),
        "points.complete_self_s": self_s("points.complete"),
        "points.principal_calls": calls_of["points.principal"],
        "points.principal_self_s": self_s("points.principal"),
        "ci.imposed_minors_calls": calls_of["ci.imposed_minors"],
        "ci.imposed_minors_s": total("ci.imposed_minors"),
        "ci.minors_built": units("ci.imposed_minors"),
        "fields.det_calls": calls_of["fields.det"],
        "fields.det_s": total("fields.det"),
        "fields.det_order_mean": _ratio(units("fields.det"),
                                        calls_of["fields.det"]),
        "dag.dags_built": calls_of["dag.dag_init"],
        "dag.pattern_calls": calls_of["dag.pattern"],
        "dag.pattern_s": total("dag.pattern"),
        "classify.trees_enumerated": calls_of["classify.enumerate"],
        "classify.collect_self_s": self_s("classify.collect"),
        "classify.patterns_distinct": units("classify.collect"),
        "classify.canonical_calls": calls_of["classify.canonical"],
        "classify.canonical_s": total("classify.canonical"),
        "classify.pairwise_tests": pairwise,
        "cli.calls": calls_of["cli.main"],
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: (raw[name] if unit == RATIO_UNIT else raw[name] / calls,
                   unit)
            for name, unit in METRICS.items()}
