"""Span bookkeeping: self times nest and add up, wrappers come off cleanly,
and a run cut short by the alarm leaves the tracer usable."""

import os
import signal

import pytest

import gen
import spans
from spans import Tracer, layer_metrics, layer_times, self_times

EPS = 1e-9


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_a_hand_built_tree():
    clock = FakeClock()
    t = Tracer(clock=clock)
    root = t.open("harness.solve_benchmark")
    clock.now = 1.0
    solve = t.open("engine.solve")
    clock.now = 2.0
    ens = t.open("engine.ensure")
    ens.eval_s, ens.eval_calls = 0.5, 3
    clock.now = 4.0
    t.close(ens)
    clock.now = 5.0
    t.close(solve)
    ver = t.open("oracle.verify")
    ver.eval_s = 1.0
    clock.now = 8.0
    t.close(ver)
    clock.now = 9.0
    t.close(root)
    own = self_times(t.spans)
    assert own == {root.id: 2.0, solve.id: 2.0, ens.id: 1.5, ver.id: 2.0}
    layers = layer_times(t.spans)
    assert layers == {"harness": 2.0, "engine": 3.5, "oracle": 2.0, "semantics": 1.5}
    assert sum(layers.values()) == root.duration


def test_closing_a_parent_ends_children_left_open():
    clock = FakeClock()
    t = Tracer(clock=clock)
    a = t.open("engine.solve")
    b = t.open("engine.ensure")
    clock.now = 3.0
    t.close(a)
    assert (a.end, b.end) == (3.0, 3.0)
    c = t.open("oracle.verify")
    assert c.parent is None


def _check_nesting(tracer):
    by_id = {s.id: s for s in tracer.spans}
    children = {}
    for s in tracer.spans:
        assert s.end is not None and s.end >= s.start
        if s.parent is not None:
            p = by_id[s.parent]
            assert p.start <= s.start and s.end <= p.end + EPS
            assert s.instance == p.instance
            children.setdefault(p.id, []).append(s)
    own = self_times(tracer.spans)
    for s in tracer.spans:
        kids = children.get(s.id, [])
        assert sum(own[k.id] for k in kids) <= s.duration + EPS
        assert sum(k.duration for k in kids) + s.eval_s <= s.duration + EPS
        assert own[s.id] >= -EPS
    roots = [s for s in tracer.spans if s.parent is None]
    assert abs(sum(layer_times(tracer.spans).values()) - sum(r.duration for r in roots)) < 1e-6


@pytest.fixture
def instances(tmp_path):
    chosen = [i for i in gen.clia(0) if i.name.endswith("qm_inner.sl")]
    chosen += [i for i in gen.pbe(0) if i.note in ("direct size 6", "stitch size 5")]
    gen.write(chosen, tmp_path)
    return {i.note if i.note != "corpus" else "qm": os.path.join(tmp_path, i.name) for i in chosen}


def test_traced_runs_nest_and_uninstall(instances):
    from sygus import engine, harness, oracle, semantics

    originals = (harness.solve_benchmark, semantics.Evaluator.eval, engine.build_decision_tree,
                 oracle.verify, harness.verify, engine.Enumerator.ensure)
    tracer = Tracer()
    tracer.install()
    try:
        for key, engine_name in (("qm", "cegis"), ("qm", "auto"), ("direct size 6", "auto")):
            tracer.instance = f"{engine_name}/{key}"
            out = harness.solve_benchmark(instances[key], harness.SuiteConfig(engine=engine_name, timeout=30))
            assert out[0] in ("solved", "unknown-verified")
    finally:
        tracer.uninstall()
    assert originals == (harness.solve_benchmark, semantics.Evaluator.eval, engine.build_decision_tree,
                         oracle.verify, harness.verify, engine.Enumerator.ensure)
    _check_nesting(tracer)
    m = layer_metrics(tracer, killed=0)
    assert m["harness.instances"][0] == 3
    assert m["frontend.parse_calls"][0] == 3
    assert m["oracle.verify_calls"][0] >= 3 + m["engine.cegis_rounds"][0] - 3
    assert m["engine.cegis_rounds"][0] >= 2
    assert m["semantics.eval_calls"][0] > 0
    assert m["engine.candidates_constructed"][0] >= m["engine.terms_yielded"][0] > 0
    assert m["harness.reverify_s"][0] > 0


def test_alarm_cut_recovers(instances, monkeypatch):
    """A run cut by the alarm, as `run.cut_run` does it, leaves every span
    ended and the entry points as they were; the next traced run works."""
    import run
    from sygus import harness, semantics

    original_eval = semantics.Evaluator.eval
    previous = signal.signal(signal.SIGALRM, run._alarm)
    tracer = Tracer()
    try:
        tracer.instance = "cut"
        cfg = harness.SuiteConfig(engine="auto", timeout=60)
        monkeypatch.setattr(run, "GRACE", 0.7 - 60)  # cut at 0.7 s, inside the predicate search
        cut = run.cut_run(harness, instances["stitch size 5"], cfg, tracer)
        monkeypatch.undo()
        assert (cut.outcome, cut.wallclock, cut.cpu) == ("timeout", 60, None)
        assert semantics.Evaluator.eval is original_eval
        tracer.instance = "after"
        cfg = harness.SuiteConfig(engine="auto", timeout=30)
        assert run.cut_run(harness, instances["direct size 6"], cfg, tracer).outcome == "solved"
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert semantics.Evaluator.eval is original_eval
    _check_nesting(tracer)
    after = [s for s in tracer.spans if s.instance == "after"]
    assert after and any(s.eval_calls for s in after)
    assert all(s.end is not None for s in tracer.spans)
