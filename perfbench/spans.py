"""Spans around the public entry points of each `sygus` layer.

`Tracer.install()` replaces the entry points with wrappers, from the
benchmark's side: nothing in `src/` is touched, and `uninstall()` puts
the originals back.  Each wrapper records a `Span` (name, start, end,
parent, instance) in memory.

`Evaluator.eval` runs too often for one span per call.  Only outermost
calls are timed, and their count and summed time go on the span that
was open at the time; `self_times` counts that sum as one more child.
Outermost-only timing uses the same trick as for the recursive
`build_decision_tree`: while the wrapper runs, the original is put back,
so recursive calls go straight to it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

# span name -> layer; self times are summed per layer
LAYERS = {
    "harness.solve_benchmark": "harness",
    "frontend.parse_file": "frontend",
    "engine.solve": "engine",
    "engine.ensure": "engine",
    "engine.build_decision_tree": "engine",
    "oracle.verify": "oracle",
    "oracle.check_conformance": "oracle",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int  # id of the enclosing span, or None
    instance: str
    start: float
    end: float = None
    eval_s: float = 0.0  # summed time of outermost Evaluator.eval calls
    eval_calls: int = 0
    note: str = ""  # result summary, e.g. "None" for a failed tree

    @property
    def duration(self):
        return self.end - self.start


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    instance: str = None
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.instance, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        """End `span`, and any span still open inside it: an interrupt
        between a wrapper's `open` and its `try` leaves one behind."""
        span.end = self.clock()
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            if top.end is None:
                top.end = span.end

    def cut(self):
        """End every open span now, after an interrupt cut a run short.

        The interrupt can land inside a wrapper's own bookkeeping, so the
        stack is not trusted to unwind by itself; `uninstall` then puts
        back the originals whatever state the wrappers were left in."""
        now = self.clock()
        for span in self._stack:
            if span.end is None:
                span.end = now
        self._stack.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    def _traced(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.note = note(result)
                return result
            finally:
                self.close(span)

        return wrapper

    def _outermost(self, owner, attr, name, note=None):
        """Span only the outermost of recursive calls to owner.attr."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            setattr(owner, attr, original)
            try:
                return traced(*args, **kwargs)
            finally:
                setattr(owner, attr, wrapper)

        traced = self._traced(name, original, note)
        return wrapper

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the entry points of frontend, engine, semantics, oracle
        and harness.  Names a module imported from another are patched
        where they are looked up."""
        from sygus import engine, frontend, harness, oracle, semantics

        def kind(verdict):
            return getattr(verdict, "kind", type(verdict).__name__)

        parse = self._traced("frontend.parse_file", frontend.parse_file)
        for mod in (frontend, harness):
            self._patch(mod, "parse_file", parse)
        for fname in ("cegis_solve", "unify_solve"):
            self._patch(harness, fname, self._traced("engine.solve", getattr(engine, fname), kind))
        verify = self._traced("oracle.verify", oracle.verify, kind)
        for mod in (oracle, harness):
            self._patch(mod, "verify", verify)
        conformance = self._traced("oracle.check_conformance", oracle.check_conformance, kind)
        for mod in (oracle, harness):
            self._patch(mod, "check_conformance", conformance)
        solve = self._traced("harness.solve_benchmark", harness.solve_benchmark, lambda r: r[0])
        self._patch(harness, "solve_benchmark", solve)
        tree = self._outermost(
            engine, "build_decision_tree", "engine.build_decision_tree", lambda t: "None" if t is None else "tree"
        )
        self._patch(engine, "build_decision_tree", tree)
        self._patch(engine.Enumerator, "ensure", self._ensure(engine.Enumerator.ensure))
        self._patch(engine.Enumerator, "enumerate", self._enumerate(engine.Enumerator.enumerate))
        self._patch(semantics.Evaluator, "eval", self._eval(semantics.Evaluator))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _ensure(self, original):
        counts = self.counts

        @functools.wraps(original)
        def ensure(en, size):
            before = en.constructed
            span = self.open("engine.ensure")
            try:
                original(en, size)
                counts["engine.max_size_built"] = max(counts["engine.max_size_built"], min(size, en.max_size))
            finally:
                counts["engine.candidates_constructed"] += en.constructed - before
                self.close(span)

        return ensure

    def _enumerate(self, original):
        counts = self.counts

        @functools.wraps(original)
        def enumerate(en, nt=None):
            for item in original(en, nt):
                counts["engine.terms_yielded"] += 1
                yield item

        return enumerate

    def _eval(self, cls):
        original = cls.eval
        stack, clock = self._stack, self.clock

        @functools.wraps(original)
        def eval(ev, t, env):
            cls.eval = original
            t0 = clock()
            try:
                return original(ev, t, env)
            finally:
                dt = clock() - t0
                cls.eval = eval
                if stack:
                    stack[-1].eval_s += dt
                    stack[-1].eval_calls += 1

        return eval


def self_times(spans):
    """Self time of each span id: its duration minus its children's, where
    the outermost `Evaluator.eval` calls count as one more child."""
    out = {s.id: s.duration - s.eval_s for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_times(spans):
    """Self time per layer, plus `semantics` for the timed eval calls."""
    own = self_times(spans)
    out = Counter()
    for s in spans:
        out[LAYERS[s.name]] += own[s.id]
        out["semantics"] += s.eval_s
    return out


def _inside(span, name, by_id):
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == name:
            return True
    return False


def layer_metrics(tracer, killed):
    """The per-layer metrics, name -> (value, unit).  Times ending in
    `_s` are self times, except `harness.busy_s` and `harness.reverify_s`,
    which are whole spans."""
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    named = lambda n: [s for s in spans if s.name == n]
    self_s = lambda n: sum(own[s.id] for s in named(n))
    ratio = lambda a, b: a / b if b else 0.0
    verifies = named("oracle.verify")
    trees = named("engine.build_decision_tree")
    counts = tracer.counts
    return {
        "frontend.parse_s": (self_s("frontend.parse_file"), "s"),
        "frontend.parse_calls": (len(named("frontend.parse_file")), "count"),
        "engine.enum_s": (self_s("engine.ensure"), "s"),
        "engine.candidates_constructed": (counts["engine.candidates_constructed"], "count"),
        "engine.terms_yielded": (counts["engine.terms_yielded"], "count"),
        "engine.yield_ratio": (ratio(counts["engine.terms_yielded"], counts["engine.candidates_constructed"]), "ratio"),
        "engine.max_size_built": (counts["engine.max_size_built"], "count"),
        "engine.dt_s": (self_s("engine.build_decision_tree"), "s"),
        "engine.dt_calls": (len(trees), "count"),
        "engine.dt_fail_frac": (ratio(sum(s.note == "None" for s in trees), len(trees)), "ratio"),
        "engine.solve_self_s": (self_s("engine.solve"), "s"),
        "engine.cegis_rounds": (sum(_inside(s, "engine.solve", by_id) for s in verifies), "count"),
        "oracle.verify_s": (self_s("oracle.verify"), "s"),
        "oracle.verify_calls": (len(verifies), "count"),
        "oracle.cex_frac": (ratio(sum(s.note == "counterexample" for s in verifies), len(verifies)), "ratio"),
        "oracle.conformance_s": (self_s("oracle.check_conformance"), "s"),
        "semantics.eval_calls": (sum(s.eval_calls for s in spans), "count"),
        "semantics.eval_s": (sum(s.eval_s for s in spans), "s"),
        "harness.busy_s": (sum(s.duration for s in named("harness.solve_benchmark")), "s"),
        "harness.reverify_s": (
            sum(s.duration for s in verifies if s.parent is not None and by_id[s.parent].name == "harness.solve_benchmark"),
            "s",
        ),
        "harness.killed": (killed, "count"),
        "harness.instances": (len(named("harness.solve_benchmark")), "count"),
    }
