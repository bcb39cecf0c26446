"""Seeded workload generators.

Each generator returns a list of `Instance`s: a file name, the SyGuS-IF
text, and a reference program used for the size ratio.  The same seed
gives byte-identical text.  Everything is computed with the benchmark's
own reader and evaluator (`refcheck`), never with `sygus`, so the inputs
do not change when the program under test does.

File names fix the order `harness.run_suite` starts runs in (sorted), so
the generators name the long runs first and two workers stay busy.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass

from refcheck import BV, MASK64, OPS, evaluate, read, show

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks")


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    reference: str  # body of a known solution, in concrete syntax
    note: str = ""  # why the instance is in the workload
    only: tuple = None  # engine labels it runs under; None for all of them

    def runs_under(self, label):
        return self.only is None or label in self.only


def _corpus(name):
    with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
        return fh.read()


def _bv(v):
    return show(BV(v, 64))


# ---------------------------------------------------------------------------
# pbe: bitvector programming-by-example over the fig2 grammar, plus strings

STRUCTURED = (0, 1, MASK64, 1 << 32, (1 << 32) - 1)
INITIALS_REF = '(str.++ (str.at name 0) (str.++ "." (str.++ (str.at name (+ 1 (str.indexof name " " 0))) ".")))'

# How many bitvector targets of each kind and size one pass holds, in
# the order they are named.
# "direct": no term smaller than the target, and no other term of its size,
# matches its output on some example, so the cover union of the
# unification search cannot complete first and enumeration finds the
# target itself.  "stitch": terms smaller than the target already cover
# every example, so `auto` starts decision-tree stitching with
# predicates up to size 9 and runs into its budget.  Instances that are
# neither are never drawn, so every seed has the same mix of outcomes.
# One stitching target keeps a run `auto` misses in the workload; it is
# killed at a fixed time, so the solved runs are made to outweigh it.
# A direct target costs `auto` the time it takes to build every term up
# to its size, whichever target of that size it is: a size-7 target
# about 3 s on a 2-core machine, a size-6 one about 0.5 s.  The size-6
# targets are the most numerous, so the median run time falls inside one
# cluster of equal work; they are interleaved with the size-7 targets so
# that their samples spread over the whole pass.
PBE_MIX = (("stitch", 5, 1),) + (("direct", 7, 1), ("direct", 6, 5)) * 3 + (
    ("direct", 6, 1),
    ("direct", 5, 1),
    ("direct", 4, 1),
)
BANK_SIZE = 7


def _fig2():
    """Macros and Start productions of the fig2 template; a hole is the
    symbol `Start`."""
    funs, prods = {}, []
    for form in read(_corpus("fig2_bv_template.sl")):
        if form[0] == "define-fun":
            funs[form[1]] = ([p[0] for p in form[2]], form[4])
        elif form[0] == "synth-fun":
            (rule,) = form[4]
            prods = list(rule[2])
    return funs, prods


class Bank:
    """Bottom-up bank of fig2 terms, one per distinct output vector on
    `inputs`, grouped by the smallest size that reaches the vector.

    Productions are leaves or `(op Start ... Start)`; a candidate's vector
    is computed from its children's vectors."""

    def __init__(self, inputs, max_size):
        self.inputs = inputs
        self.funs, self.prods = _fig2()
        self.by_size = {}  # size -> [(term, vector)]
        self.size_of = {}  # vector -> smallest size reaching it
        # hits[s][i]: how many bank vectors of size <= s take each value at example i
        self.hits = {0: [Counter() for _ in inputs]}
        for s in range(1, max_size + 1):
            self._grow(s)

    def vector(self, term):
        return tuple(evaluate(term, {"x": v}, self.funs) for v in self.inputs)

    def _apply(self, op):
        if op in self.funs:
            params, body = self.funs[op]
            return lambda *args: evaluate(body, dict(zip(params, args)), self.funs)
        return OPS[op]

    def _grow(self, s):
        out = self.by_size.setdefault(s, [])
        for prod in self.prods:
            if not isinstance(prod, tuple):
                if s == 1:
                    self._add(out, s, prod, self.vector(prod))
                continue
            k, fn = len(prod) - 1, self._apply(prod[0])
            for kids in self._kids(s - 1, k):
                vec = tuple(map(fn, *(v for _, v in kids)))
                if vec not in self.size_of:
                    self._add(out, s, (prod[0],) + tuple(t for t, _ in kids), vec)
        counts = [Counter(c) for c in self.hits[s - 1]]
        for _, vec in out:
            for c, v in zip(counts, vec):
                c[v] += 1
        self.hits[s] = counts

    def _add(self, out, s, term, vec):
        self.size_of[vec] = s
        out.append((term, vec))

    def _kids(self, budget, k):
        if k == 1:
            for entry in self.by_size.get(budget, ()):
                yield (entry,)
            return
        for first in range(1, budget - k + 2):
            for entry in self.by_size.get(first, ()):
                for rest in self._kids(budget - first, k - 1):
                    yield (entry,) + rest

    def covered(self, outputs, max_size, exclude=False):
        """Examples whose output some bank term of size <= max_size hits;
        with `exclude`, a term whose whole vector is `outputs` does not
        count."""
        own = 1 if exclude and self.size_of.get(outputs, max_size + 1) <= max_size else 0
        return {i for i, (c, v) in enumerate(zip(self.hits[max_size], outputs)) if c[v] > own}


def _pbe_kind(bank, vec, k):
    every = set(range(len(vec)))
    if bank.covered(vec, k - 1) == every:
        return "stitch"
    if bank.covered(vec, k, exclude=True) != every:
        return "direct"
    return None


def pbe(seed):
    rng = random.Random(seed)
    randoms = []
    while len(randoms) < 5:
        v = rng.getrandbits(64)
        if v not in STRUCTURED and v not in randoms:
            randoms.append(v)
    inputs = STRUCTURED + tuple(randoms)
    bank = Bank(inputs, BANK_SIZE)
    out = []
    for kind, k, count in PBE_MIX:
        picked = 0
        while picked < count:
            term, vec = rng.choice(bank.by_size[k])
            if _pbe_kind(bank, vec, k) != kind:
                continue
            name = f"p{len(out):02d}_{kind}{k}.sl"
            if any(i.reference == show(term) for i in out):
                continue
            out.append(Instance(name, _pbe_text(term, inputs, vec), show(term), f"{kind} size {k}"))
            picked += 1
    for name in ("initials.sl", "initials_repeat.sl"):
        out.append(Instance(f"p{len(out):02d}_{name}", _corpus(name), INITIALS_REF, "string PBE"))
    return out


def _pbe_text(term, inputs, outputs):
    lines = [
        f"; Recover {show(term)} from {len(inputs)} input/output examples.",
        "(set-logic BV)",
    ]
    funs, prods = _fig2()
    for name, (params, body) in funs.items():
        sig = " ".join(f"({p} (BitVec 64))" for p in params)
        lines.append(f"(define-fun {name} ({sig}) (BitVec 64) {show(body)})")
    lines.append("(synth-fun f ((x (BitVec 64))) (BitVec 64)")
    lines.append("  ((Start (BitVec 64) (" + " ".join(show(p) for p in prods) + "))))")
    for a, b in zip(inputs, outputs):
        lines.append(f"(constraint (= (f {_bv(a)}) {_bv(b)}))")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# clia: universally quantified conditional linear integer arithmetic

ABS_REF = "(ite (< x 0) (- 0 x) x)"
QM_INNER_REF = "(qm (- x 1) 7)"
_CMPS = ("<", "<=", ">", ">=")
_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _compare(rng, var, consts):
    """(cmp var c) or its mirror image (cmp' c var)."""
    op, c = rng.choice(_CMPS), rng.choice(consts)
    return (op, var, c) if rng.random() < 0.5 else (_MIRROR[op], c, var)


def _clia_easy(rng):
    """(ite (cmp y 0) u v) with {u, v} = {x, y}, of size 6, which `cegis`
    solves in 0.4-0.5 s on a 2-core machine."""
    u, v = rng.sample(("x", "y"), 2)
    return ("ite", _compare(rng, "y", (0,)), u, v)


def _clia_hard(rng):
    """(ite (cmp x c) (+ v 1) (- v 1)), branches in either order, of size
    10; `cegis` returns a size-10 solution whose inner ite picks the
    offset's sign in 2.2-4.1 s on a 2-core machine."""
    v = rng.choice(("x", "y"))
    up, down = ("+", v, 1), ("-", v, 1)
    return ("ite", _compare(rng, "x", (0, 1))) + ((up, down) if rng.random() < 0.5 else (down, up))


# The generated specs of one pass, longest first, with the engine labels
# each runs under.  Under `auto` a generated spec is still enumerating
# predicates long after its budget and is killed at a fixed time, so only
# the first runs there; the `cegis` runs, which solve, hold most of the
# pass's time.  The twelve size-6 specs and `abs` solve in nearly the
# same time under `cegis`, and the median run time falls inside that
# cluster, clear of the killed run's fixed time.
CLIA_MIX = ((_clia_hard, "size10", None), (_clia_hard, "size10", ("cegis",))) + (
    (_clia_easy, "size6", ("cegis",)),
) * 12


def _clia_text(ref):
    return (
        f"; f agrees with {ref} everywhere.\n"
        "(set-logic LIA)\n"
        "(synth-fun f ((x Int) (y Int)) Int)\n"
        "(declare-var x Int)\n"
        "(declare-var y Int)\n"
        f"(constraint (= (f x y) {ref}))\n"
        "(check-synth)\n"
    )


def clia(seed):
    rng = random.Random(seed)
    out, refs = [], set()
    for make, label, only in CLIA_MIX:
        ref = show(make(rng))
        while ref in refs:
            ref = show(make(rng))
        refs.add(ref)
        out.append(Instance(f"c{len(out):02d}_{label}.sl", _clia_text(ref), ref, f"generated {label}", only))
    out.append(Instance(f"c{len(out):02d}_abs.sl", _corpus("abs.sl"), ABS_REF, "corpus"))
    out.append(Instance(f"c{len(out):02d}_qm_inner.sl", _corpus("qm_inner.sl"), QM_INNER_REF, "corpus"))
    return out


# ---------------------------------------------------------------------------
# inv: loop invariants within the ICE learner's octagon atoms

INV_GUARDED_REF = "(and (= (+ i j) (+ i0 j0)) (>= i 0))"
_NAMES = (("a", "b"), ("n", "m"), ("k", "s"), ("u", "v"), ("p", "q"))


def _inv_variant(rng):
    """A renamed counter c that counts down to 0 (or up to 0) while an
    accumulator d moves with it (or against it); returns (text,
    reference invariant).  The invariant is d - c (or c + d) kept at its
    initial value, plus the side of 0 that c starts on."""
    c, d = rng.choice(_NAMES)
    c0, d0 = c + "0", d + "0"
    down = rng.random() < 0.5
    same = rng.random() < 0.5
    c_op, other = ("-", "+") if down else ("+", "-")
    d_op = c_op if same else other
    if down:
        guard, done, start = f"(> {c} 0)", f"(<= {c} 0)", f"(>= {c} 0)"
    else:
        guard, done, start = f"(< {c} 0)", f"(>= {c} 0)", f"(<= {c} 0)"
    if same:
        final, kept = f"(- {d0} {c0})", f"(= (- {d} {c}) (- {d0} {c0}))"
    else:
        final, kept = f"(+ {d0} {c0})", f"(= (+ {c} {d}) (+ {c0} {d0}))"
    state = f"({c} Int) ({d} Int) ({c0} Int) ({d0} Int)"
    primed = f"{state} ({c}! Int) ({d}! Int) ({c0}! Int) ({d0}! Int)"
    frame = f"(and (= {c0}! {c0}) (= {d0}! {d0}))"
    text = "\n".join(
        [
            f"; Loop {c} {'down' if down else 'up'} to 0 while {d} moves {'with' if same else 'against'} it.",
            "(set-logic LIA)",
            f"(synth-inv inv-f ({state}))",
            f"(declare-primed-var {c0} Int)",
            f"(declare-primed-var {d0} Int)",
            f"(declare-primed-var {c} Int)",
            f"(declare-primed-var {d} Int)",
            f"(define-fun pre-f ({state}) Bool (and {start} (and (= {c} {c0}) (= {d} {d0}))))",
            f"(define-fun trans-f ({primed}) Bool",
            f"  (or (and {guard} (and (and (= {c}! ({c_op} {c} 1)) (= {d}! ({d_op} {d} 1))) {frame}))",
            f"      (and {done} (and (and (= {c}! {c}) (= {d}! {d})) {frame}))))",
            f"(define-fun post-f ({state}) Bool (=> {done} (= {d} {final})))",
            "(inv-constraint inv-f pre-f trans-f post-f)",
            "(check-synth)",
        ]
    )
    return text + "\n", f"(and {kept} {start})"


def inv(seed):
    rng = random.Random(seed)
    text, ref = _inv_variant(rng)
    return [
        Instance("i00_inv_loop_guarded.sl", _corpus("inv_loop_guarded.sl"), INV_GUARDED_REF, "corpus"),
        Instance("i01_variant.sl", text, ref, "generated"),
    ]


WORKLOADS = {"pbe": pbe, "clia": clia, "inv": inv}


def write(instances, directory, label=None):
    """Write the instances that run under engine `label`, or all of them."""
    for inst in instances:
        if label is not None and not inst.runs_under(label):
            continue
        with open(os.path.join(directory, inst.name), "w", encoding="utf-8") as fh:
            fh.write(inst.text)
