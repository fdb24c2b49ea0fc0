"""The tracer: self times add up, hot calls aggregate, wrappers go away."""

import itertools
import json
import sys
import types

import pytest

import dagiso
from layers import BOUNDARIES, layer_metrics
from tracing import AGGREGATE, YIELDS, Boundary, Tracer


@pytest.fixture
def fakepkg():
    """fakepkg.a defines the functions; fakepkg.b imports two of them."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def leaf(x):
        return x + 1

    def hot(x):
        return a.leaf(x)  # looked up at call time, like a module global

    def gen(k):
        yield from range(k)

    def mid(k):
        return sum(a.hot(x) for x in a.gen(k)) + a.leaf(0)

    a.leaf, a.hot, a.gen, a.mid = leaf, hot, gen, mid
    b.mid, b.leaf = mid, leaf
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        del sys.modules[name]


FAKE = (
    Boundary("a.mid", "fakepkg.a", "mid"),
    Boundary("a.hot", "fakepkg.a", "hot", AGGREGATE),
    Boundary("a.leaf", "fakepkg.a", "leaf", AGGREGATE,
             lambda args, _: args[0]),
    Boundary("a.gen", "fakepkg.a", "gen", YIELDS),
)


def test_self_times_sum_to_parent_duration(fakepkg):
    a, b = fakepkg
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.installed(FAKE, "fakepkg"):
        assert b.mid(3) == 7
    (root,) = tracer.spans
    assert root.name == "a.mid" and root.parent is None
    self_total = root.self_s + sum(agg[2]
                                   for agg in tracer.aggregates.values())
    assert self_total == root.duration
    # leaf is aggregated once under mid and once under each hot call
    assert tracer.aggregates[(root.id, "a.leaf")][0] == 1
    assert tracer.aggregates[((root.id, "a.hot"), "a.leaf")][0] == 3
    assert tracer.aggregates[((root.id, "a.hot"), "a.leaf")][3] == 0 + 1 + 2
    totals = tracer.totals()
    assert totals["a.hot"][0] == 3 and totals["a.leaf"][0] == 4
    assert totals["a.gen"][0] == 3


def test_dump_writes_every_record(fakepkg, tmp_path):
    a, b = fakepkg
    tracer = Tracer()
    with tracer.installed(FAKE, "fakepkg"):
        b.mid(2)
    tracer.dump(str(tmp_path / "spans.json"))
    dumped = json.loads((tmp_path / "spans.json").read_text())
    assert [s[2] for s in dumped["spans"]] == ["a.mid"]
    assert sorted(agg[1] for agg in dumped["aggregates"]) == [
        "a.hot", "a.leaf", "a.leaf"]
    assert dumped["counts"] == {"a.gen": 2}


def test_wrappers_cover_every_namespace_and_are_removed(fakepkg):
    a, b = fakepkg
    originals = (a.mid, a.leaf, b.mid, b.leaf)
    with Tracer().installed(FAKE, "fakepkg"):
        assert b.mid is a.mid and b.leaf is a.leaf
        assert a.mid is not originals[0] and b.leaf is not originals[3]
    assert (a.mid, a.leaf, b.mid, b.leaf) == originals


def test_wrappers_removed_after_an_exception(fakepkg):
    a, b = fakepkg
    original = b.mid
    with pytest.raises(RuntimeError):
        with Tracer().installed(FAKE, "fakepkg"):
            raise RuntimeError("boom")
    assert b.mid is original and a.mid is original


def _dagiso_namespace_state():
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "dagiso" or name.startswith("dagiso.")}
    return {(name, attr): value for name, mod in mods.items()
            for attr, value in vars(mod).items() if callable(value)}


def test_dagiso_trace_restores_originals_and_adds_up():
    import dagiso.cli  # noqa: F401  (loaded, so its namespace is patched)
    before = _dagiso_namespace_state()
    dag_init = dagiso.Dag.__dict__["__init__"]
    chain = dagiso.Dag(3, [(0, 1), (1, 2)])
    fork = dagiso.Dag(3, [(1, 0), (1, 2)])
    tracer = Tracer()
    with tracer.installed(BOUNDARIES, "dagiso"):
        assert dagiso.randomized.sample_point is dagiso.cli.sample_point
        assert dagiso.randomized.sample_point is not before[
            ("dagiso.points", "sample_point")]
        verdict = dagiso.isomorphism_test(chain, fork)
    assert verdict.answer == "yes"
    assert _dagiso_namespace_state() == before
    assert dagiso.Dag.__dict__["__init__"] is dag_init

    (root,) = [s for s in tracer.spans if s.parent is None]
    assert root.name == "randomized.isomorphism_test"
    self_total = (sum(s.self_s for s in tracer.spans)
                  + sum(agg[2] for agg in tracer.aggregates.values()))
    assert self_total == pytest.approx(root.duration, abs=1e-9)

    m = {k: v for k, (v, _) in layer_metrics(tracer, 1, 1.0).items()}
    assert m["randomized.witness_calls"] == 6
    assert m["randomized.witness_hit_ratio"] == 1.0
    assert m["points.sample_calls"] == 6 and m["points.accept_ratio"] == 1.0
    assert m["fields.det_calls"] > 0 and m["randomized.candidates"] > 0
    assert m["cli.calls"] == 0 and m["dag.pattern_calls"] == 0
