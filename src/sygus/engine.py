"""Synthesis engines.

Two strategies over the same enumeration machinery:

* `cegis_solve` — size-ordered grammar enumeration with
  observational-equivalence pruning proposes each candidate.
* `unify_solve` — cover small terms over the current point set, then
  stitch them with enumerated predicates; invariant problems use an
  ICE-style variant that learns a Boolean combination of enumerated
  atoms from positive, negative and implication examples.

`classify` decides once what kind each problem is.  Plain CEGIS,
unification and the ICE variant share one counterexample-guided loop,
`_cegis`: propose a candidate, verify it, then learn from the
counterexample or stall.  PBE problems skip the loop, since their
examples are the whole specification.  PBE and unification share one
cover-and-stitch search, `_cover_and_stitch`.  CEGIS and unification
check a candidate with one `_point_check` per round: the constraints are
compiled once over the round's points, and each target application reads
the candidate's value from its bank vector.  Stitching and invariant
learning grow their trees with one greedy information-gain ID3,
`build_decision_tree`, over predicate pools from one builder,
`_predicate_pool`.

Enumeration order is total and reproducible: by size, then production
index, then recursive argument order.  Each production is compiled once
per enumerator into one generated function that computes a candidate's
vector over every observation point from its children's vectors; a term
is built only for a vector pruning keeps.

Every engine keeps one wallclock deadline.  The enumerator refuses a
request for sizes it predicts cannot finish in the time left (the next
size counted exactly, later ones from its growth over the size before),
and stops a size the deadline overtakes; either raises BudgetExceeded,
which `cegis_solve` and `unify_solve` turn into
`Failure("budget-exhausted")`.
Nothing cut short is ever read, so no other outcome depends on the
clock.  PBE and CEGIS stop building a size at the first term they
accept.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import operator
import random
import time
from collections import Counter
from dataclasses import dataclass

from .core import (
    Apply,
    BOOL,
    Grammar,
    Hole,
    INT,
    Let,
    Lit,
    STRING,
    SygusError,
    Term,
    Var,
    expand_macros,
    free_vars,
    subst,
    template_fixed_size,
    template_holes,
    var_equations,
    walk,
)
from . import oracle
from .semantics import Evaluator, SourceEmitter, default_value, solution_interpretations


class ConflictingExamples(SygusError):
    pass


class BudgetExceeded(SygusError):
    pass


@dataclass
class Budget:
    wallclock: float = 60.0
    max_term_size: int = 20
    max_pred_size: int = 9
    max_points: int = 128
    seed: int = 0


@dataclass(frozen=True)
class DefinedFun:
    name: str
    params: tuple  # of (name, Sort)
    ret: object
    body: Term


@dataclass
class Solution:
    funs: dict  # name -> DefinedFun
    verdict: object = None
    points_used: int = 0

    def as_map(self):
        return {n: ([p for p, _ in f.params], f.body) for n, f in self.funs.items()}

    def emit(self):
        from .frontend import emit_define_fun

        return "\n".join(
            emit_define_fun(f.name, f.params, f.ret, f.body) for f in self.funs.values()
        )


@dataclass
class Failure:
    reason: str
    detail: str = ""


# ---------------------------------------------------------------------------
# Size-ordered enumeration with observational-equivalence pruning


def _compositions(total, k):
    """All k-tuples of positive ints summing to total."""
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _fill(tmpl, kids):
    """Instantiate a template, consuming `kids` in hole order."""
    if isinstance(tmpl, Hole):
        return next(kids)
    if isinstance(tmpl, Apply):
        return Apply(tmpl.op, tuple(_fill(a, kids) for a in tmpl.args), tmpl.sort)
    return tmpl


# A size whose build constructs at least this many candidates sets the
# seconds-per-candidate rate that the next size's cost is predicted from.
RATE_MIN_CANDIDATES = 1000
# `_try_add` looks at the deadline once per this many candidates.
DEADLINE_STRIDE = 1024


class Enumerator:
    """Per-grammar term banks, one per (nonterminal, size).

    Every banked term carries its evaluation vector over `envs`; with
    pruning on, at most one term per distinct vector is kept per
    nonterminal.  With no observation points the single default
    environment (Int 0, Bool false, BV 0, String "") still folds
    constants.

    A size is built by a generator that `ensure` drives.  With a `goal`,
    `(nt, goal(term, vec))`, the build pauses right after it banks the
    first `nt` entry that meets the goal: `ensure` returns early once,
    leaving the entry in `hit`, and the next `ensure` resumes the build
    where it paused.  Only `enumerate` and `find` read a paused size;
    `bank` always returns a complete one.

    With a `deadline`, building raises BudgetExceeded: before a request
    whose predicted cost exceeds the time left, and inside a size once
    the deadline has passed.  A build the deadline cuts is dropped, never
    resumed: its banks are never read, and the next `ensure` raises.
    """

    def __init__(self, grammar: Grammar, envs=None, interpretations=None, max_size=12, prune=True, keep=None,
                 deadline=None):
        self.grammar = grammar
        self.interpretations = dict(interpretations or {})
        self.max_size = max_size
        self.prune = prune
        self.keep = keep
        self.envs = list(envs) if envs else [self._default_env()]
        self._nts = [n for n, _ in grammar.nonterminals]
        self._prods = self._prepare()
        self._bank = {}
        self._sigs = {nt: {} for nt in self._nts}
        self._done = 0
        self.constructed = 0
        self.deadline = deadline
        self._rate = None  # seconds per candidate on the last large size built
        self._last_built = 0  # candidates the build of size _done constructed
        self.goal = None  # (nt, goal(term, vec)): pause the build at its first hit
        self.hit = None  # the entry the last pause stopped at
        self._build = None  # the generator building size _done + 1, if started
        self._cut = False  # a build was cut short; its size is never finished

    def _default_env(self):
        env = {}
        for _, templates in self.grammar.productions:
            for tmpl in templates:
                for node in walk(tmpl):
                    if isinstance(node, Var):
                        env[node.name] = default_value(node.sort)
        return env

    def _prepare(self):
        """Each nonterminal's productions, in grammar order.  Every
        production but an alias is compiled into one generated function
        fn(*kid_vecs) -> vec over all of `envs`: the template's holes are
        its parameters, and its variables are columns over `envs`, bound
        once.  A leaf's function takes no arguments."""
        em = SourceEmitter(self.interpretations)
        prods, names, sources = {nt: [] for nt in self._nts}, [], []
        for nt in self._nts:
            for idx, tmpl in enumerate(self.grammar.prods(nt)):
                if _contains_let(tmpl):
                    continue  # let productions are not enumerated
                if isinstance(tmpl, Hole):
                    prods[nt].append(("alias", idx, tmpl.nonterminal))
                    continue
                names.append(em.fresh("_p"))
                sources.append(self._vector_source(em, names[-1], tmpl))
                prods[nt].append(("compile", idx, tmpl))
        fns = iter(em.build("\n".join(sources + [f"_fns = ({''.join(n + ',' for n in names)})"]), "_fns"))
        return {
            nt: [p if p[0] == "alias" else _production(p[1], p[2], next(fns)) for p in ps]
            for nt, ps in prods.items()
        }

    def _vector_source(self, em, name, tmpl):
        """Source of `def name(*kid_vecs)` returning `tmpl`'s vector."""
        holes = template_holes(tmpl)
        kids = [em.fresh() for _ in holes]
        elems = [em.fresh() for _ in holes]
        # A hole becomes a variable named by its position: no SyGuS symbol
        # starts with a digit, so it cannot shadow a template variable.
        body = _fill(tmpl, iter([Var(str(i), h.sort) for i, h in enumerate(holes)]))
        names = {str(i): e for i, e in enumerate(elems)}
        columns = []
        for var in dict.fromkeys(n.name for n in walk(tmpl) if isinstance(n, Var)):
            names[var] = em.fresh()
            elems.append(names[var])
            columns.append(em.bind(("column", var), tuple(env[var] for env in self.envs)))
        if not elems:  # a constant leaf: one value per environment
            elems, columns = ["_"], [em.bind("points", range(len(self.envs)))]
        loop = f"for {''.join(e + ',' for e in elems)} in zip({', '.join(kids + columns)})"
        return f"def {name}({', '.join(kids)}):\n    return tuple([{em.expr(body, names)} {loop}])"

    def bank(self, nt, size):
        """Every entry of (nt, size), the size built in full."""
        while self._done < min(size, self.max_size):
            self.ensure(size)
        return self._bank.get((nt, size), [])

    def find(self, nt, size, goal):
        """The first entry of (nt, size), in bank order, that meets
        `goal(term, vec)`, or None.  Scans what is built, then builds the
        size no further than the entry."""
        self.bank(nt, size - 1)
        for entry in self._bank.get((nt, size), ()):
            if goal(*entry):
                return entry
        self.goal, self.hit = (nt, goal), None
        try:
            self.ensure(size)
        finally:
            self.goal = None
        return self.hit

    def ensure(self, size):
        """Build every size up to `size`, or pause at the goal's first hit."""
        upto = min(size, self.max_size)
        while self._done < upto:
            s = self._done + 1
            if self._build is None:
                if self.deadline is not None:
                    self._check_fits(s, upto)
                if self._cut:
                    raise BudgetExceeded(f"size {s} was cut short and cannot be resumed")
                self._build, self._build_from, self._build_s = self._build_size(s), self.constructed, 0.0
            # the rate counts building time only, not the goal's own checks
            t0, goal_s, collecting = time.perf_counter(), 0.0, gc.isenabled()
            # Banked terms and vectors form no reference cycles, so the
            # cyclic collector would only rescan the growing banks.
            gc.disable()
            try:
                for nt, entry in self._build:
                    if self.goal is not None and nt == self.goal[0]:
                        g0 = time.perf_counter()
                        met = self.goal[1](*entry)
                        goal_s += time.perf_counter() - g0
                        if met:
                            self.goal, self.hit = None, entry
                            return
            except BaseException:  # whatever ends the generator leaves the size half built
                self._build, self._cut = None, True
                raise
            finally:
                if collecting:
                    gc.enable()
                self._build_s += time.perf_counter() - t0 - goal_s
            built = self.constructed - self._build_from
            if built >= RATE_MIN_CANDIDATES:
                self._rate = self._build_s / built
            self._build, self._done, self._last_built = None, s, built

    def _check_fits(self, s, upto):
        """Raise BudgetExceeded unless sizes `s..upto` are predicted to
        finish in the time left.  Size `s` is counted exactly.  A later
        size `t` is predicted from growth, as size_cost(s) * g**(t - s)
        where g is size_cost(s) over the candidates size s - 1 built, and
        never below size_cost(t), which counts only the candidates the
        banks built so far imply.  With either count 0, size_cost(t)
        alone is the prediction."""
        left = self.deadline.remaining()
        if left <= 0:
            raise BudgetExceeded(f"deadline reached before size {s}")
        if self._rate is not None:
            first = self.size_cost(s)
            growth = first / self._last_built if first and self._last_built else 0
            later = sum(max(self.size_cost(t), first * growth ** (t - s)) for t in range(s + 1, upto + 1))
            need = (first + later) * self._rate
            if need > left:
                what = f"size {s} needs" if upto == s else f"sizes {s}-{upto} need"
                raise BudgetExceeded(f"{what} about {need:.3g} s, {left:.3g} s left")

    def size_cost(self, s):
        """Candidates `_build_size(s)` constructs once every smaller size
        is built: each leaf of size `s`, and for each production with
        holes and each split of the size among them, the product of the
        child banks' lengths."""
        total = 0
        for nt in self._nts:
            for prod in self._prods[nt]:
                if prod[0] == "leaf":
                    total += template_fixed_size(prod[2]) == s
                elif prod[0] == "comp":
                    _, _, _, hole_nts, fixed, _ = prod
                    for sizes in _compositions(s - fixed, len(hole_nts)):
                        total += math.prod(len(self._bank.get(hs, ())) for hs in zip(hole_nts, sizes))
        return total

    def _build_size(self, s):
        """Build size `s`, yielding (nt, entry) after each entry it banks."""
        for nt in self._nts:
            self._bank[(nt, s)] = []
        built = set()  # (nt, production index): leaves and compositions are built once
        read = {}  # (nt, production index) of an alias -> source entries read
        changed = True
        while changed:  # fixpoint for alias chains at equal size
            changed = False
            for nt in self._nts:
                out = self._bank[(nt, s)]
                for prod in self._prods[nt]:
                    kind, key = prod[0], (nt, prod[1])
                    if kind == "alias":
                        src = self._bank.get((prod[2], s), [])
                        pos = read.get(key, 0)
                        while pos < len(src):
                            term, vec = src[pos]
                            pos += 1
                            if self._admit(nt, term, vec):
                                out.append((term, vec))
                                changed = True
                                yield nt, out[-1]
                        read[key] = pos
                        continue
                    if key in built:
                        continue
                    built.add(key)
                    if kind == "leaf":
                        _, _, tmpl, fn = prod
                        if s == template_fixed_size(tmpl) and self._try_add(nt, s, tmpl, fn, []):
                            changed = True
                            yield nt, out[-1]
                        continue
                    _, _, tmpl, hole_nts, fixed, fn = prod
                    k = len(hole_nts)
                    if s - fixed < k:
                        continue
                    for sizes in _compositions(s - fixed, k):
                        banks = [self._bank.get((hole_nts[i], sizes[i]), []) for i in range(k)]
                        if any(not b for b in banks):
                            continue
                        for combo in itertools.product(*banks):
                            if self._try_add(nt, s, tmpl, fn, combo):
                                changed = True
                                yield nt, out[-1]

    def _try_add(self, nt, s, tmpl, fn, combo):
        vec = fn(*[c[1] for c in combo])
        self.constructed += 1
        if self.constructed % DEADLINE_STRIDE == 0 and self.deadline is not None and self.deadline.expired():
            raise BudgetExceeded(f"deadline reached while building size {s}")
        if self.prune and vec in self._sigs[nt]:
            return False  # the term would be dropped: do not build it
        term = _fill(tmpl, iter([c[0] for c in combo])) if combo else tmpl
        if not self._admit(nt, term, vec):
            return False
        self._bank[(nt, s)].append((term, vec))
        return True

    def _admit(self, nt, term, vec):
        if self.keep is not None and not isinstance(term, (Var, Lit)):
            if not self.keep(nt, term, vec):
                return False
        if self.prune:
            sigs = self._sigs[nt]
            if vec in sigs:
                return False
            sigs[vec] = term
        return True

    def enumerate(self, nt=None):
        """Yield (term, vector) in nondecreasing size up to the size cap."""
        nt = nt or self.grammar.start
        for s in range(1, self.max_size + 1):
            i = 0
            while True:  # a paused size is read as far as it is built
                self.ensure(s)
                out = self._bank.get((nt, s), [])
                while i < len(out):
                    yield out[i]
                    i += 1
                if self._done >= s:
                    break

    def max_finite_size(self):
        """Largest derivable term size if the grammar is acyclic, else None."""
        memo = {}
        visiting = set()

        def go(nt):
            if nt in memo:
                return memo[nt]
            if nt in visiting:
                return None  # recursive grammar: unbounded
            visiting.add(nt)
            sizes = []
            for prod in self._prods[nt]:
                if prod[0] == "leaf":
                    sizes.append(template_fixed_size(prod[2]))
                elif prod[0] == "alias":
                    sizes.append(go(prod[2]))
                else:
                    subs = [go(h) for h in prod[3]]
                    sizes.append(None if None in subs else prod[4] + sum(subs))
                if sizes[-1] is None:
                    break
            visiting.discard(nt)
            memo[nt] = None if None in sizes else max(sizes, default=None)
            return memo[nt]

        return go(self.grammar.start)


def _production(idx, tmpl, fn):
    holes = template_holes(tmpl)
    if holes:
        return ("comp", idx, tmpl, [h.nonterminal for h in holes], template_fixed_size(tmpl), fn)
    return ("leaf", idx, tmpl, fn)


def _contains_let(t):
    return any(isinstance(n, Let) for n in walk(t))


# ---------------------------------------------------------------------------
# PBE extraction and problem classes


@dataclass(frozen=True)
class PbeExample:
    inputs: tuple
    output: object


def extract_pbe_points(problem):
    """Input-output examples when every constraint is `(= (f lit...) lit)`.

    Returns a deduplicated example list, or None when the problem is not
    pure PBE.  Raises ConflictingExamples on inconsistent duplicates.
    """
    if len(problem.targets) != 1:
        return None
    target = problem.targets[0]
    seen = {}
    order = []
    for c in problem.constraints:
        if not (isinstance(c, Apply) and c.op == "=" and len(c.args) == 2):
            return None
        lhs, rhs = c.args
        if isinstance(rhs, Apply) and rhs.op == target.name:
            lhs, rhs = rhs, lhs
        if not (isinstance(lhs, Apply) and lhs.op == target.name and isinstance(rhs, Lit)):
            return None
        if not all(isinstance(a, Lit) for a in lhs.args):
            return None
        inputs = tuple(a.value for a in lhs.args)
        if inputs in seen:
            if seen[inputs] != rhs.value:
                raise ConflictingExamples(
                    f"inputs {inputs!r} mapped to both {seen[inputs]!r} and {rhs.value!r}"
                )
            continue
        seen[inputs] = rhs.value
        order.append(PbeExample(inputs, rhs.value))
    return order


@dataclass(frozen=True)
class ProblemClass:
    """`kind` is "invariant", "pbe" (with its `examples`), "conditional"
    (a single target whose `_conditional_kind` is `cond`) or "plain".
    Examples in `conflict` leave the problem classed by its grammar."""

    kind: str
    examples: list = None
    cond: tuple = (None, None)
    conflict: str = None


def classify(problem):
    """The one place that decides what kind of problem `problem` is."""
    if problem.invariant_spec is not None:
        return ProblemClass("invariant")
    cond = _conditional_kind(problem.targets[0].grammar) if len(problem.targets) == 1 else (None, None)
    try:
        examples, conflict = extract_pbe_points(problem), None
    except ConflictingExamples as e:
        examples, conflict = None, str(e)
    kind = "pbe" if examples is not None else "plain" if cond[0] is None else "conditional"
    return ProblemClass(kind, examples, cond, conflict)


# ---------------------------------------------------------------------------
# Candidate search helpers


def _point_check(problem, points, envs):
    """check(entries): the ids of `points` where every constraint holds
    with target i as entries[i] = (term, vec), `vec` being the term's
    vector over envs[i].  The constraints are compiled once, into one
    function over the points' columns.  An application reads its value
    from `vec` by argument tuple; only a tuple outside envs[i] (a nested
    application, or a stitched term passed with vec = ()) compiles `term`."""
    targets, ev = problem.targets, Evaluator(problem.macro_map())
    em = SourceEmitter(problem.macro_map(), {t.name: f"_t{i}" for i, t in enumerate(targets)})
    local = {n: em.fresh() for n, _ in problem.universals}
    columns = [repr(range(len(points)))] + [em.bind(("column", n), tuple(p[n] for p in points)) for n in local]
    holds = " and ".join(em.expr(c, local) for c in problem.constraints) or "True"
    run = em.build(f"def run():\n    return frozenset([_i for _i, {''.join(v + ',' for v in local.values())} in "
                   f"zip({', '.join(columns)}) if {holds}])", "run")
    rows = [[tuple(env[n] for n, _ in t.params) for env in e] for t, e in zip(targets, envs)]

    def bind(target, table, term):
        def call(*args):
            if args not in table:
                table[args] = ev.eval(term, dict(zip([n for n, _ in target.params], args)))
            return table[args]

        return call

    def check(entries):
        for i, (term, vec) in enumerate(entries):
            em.namespace[f"_t{i}"] = bind(targets[i], dict(zip(rows[i], vec)), term)
        return run()

    return check


def _applications(problem, target):
    """The distinct applications of `target` in the constraints, macros
    expanded and lets inlined, in order of appearance."""
    macro_map = problem.macro_map()
    return list(dict.fromkeys(
        t for c in problem.constraints for t in walk(_inline_lets(expand_macros(c, macro_map)))
        if isinstance(t, Apply) and t.op == target.name
    ))


def _inline_lets(t):
    if isinstance(t, Let):
        return _inline_lets(subst(t.body, dict(t.bindings)))
    if isinstance(t, Apply):
        return Apply(t.op, tuple(_inline_lets(a) for a in t.args), t.sort)
    return t


def collect_envs(problem, target, points):
    """Parameter environments for `target` induced by the points.

    Each application of the target whose arguments mention no synthesis
    target is evaluated at every point; the resulting argument tuples
    become observation environments.  With one application, environment
    i belongs to point i, repeats included; with more, repeated tuples
    are dropped.
    """
    names = problem.target_names()
    apps = [
        t.args for t in _applications(problem, target)
        if not any(isinstance(n, Apply) and n.op in names for a in t.args for n in walk(a))
    ]
    if not points or not apps:
        return []
    ev = Evaluator(problem.macro_map())
    rows = [tuple(ev.eval(a, p) for a in args) for p in points for args in apps]
    if len(apps) > 1:
        rows = list(dict.fromkeys(rows))
    param_names = [n for n, _ in target.params]
    return [dict(zip(param_names, vals)) for vals in rows]


def _enum_for(problem, target, envs, budget, deadline):
    return Enumerator(target.grammar, envs, problem.macro_map(), max_size=budget.max_term_size, deadline=deadline)


def _exhaust_reason(en):
    finite = en.max_finite_size()
    if finite is not None and finite <= en.max_size:
        return Failure("grammar-exhausted")
    return Failure("budget-exhausted", "size cap reached")


class _Deadline:
    """A run's wallclock budget, counted from construction."""

    def __init__(self, seconds):
        self.t0 = time.monotonic()
        self.limit = seconds

    def remaining(self):
        return self.limit - (time.monotonic() - self.t0)

    def expired(self):
        return self.remaining() < 0

    def check(self):
        if self.expired():
            raise BudgetExceeded("deadline reached")


# ---------------------------------------------------------------------------
# CEGIS


def _defined_funs(targets, bodies):
    """{name: DefinedFun} for `targets`, given {name: body}."""
    return {t.name: DefinedFun(t.name, t.params, t.ret, bodies[t.name]) for t in targets}


def _cegis(problem, targets, propose, learn, used, rounds, deadline, cfg):
    """The counterexample-guided loop that every engine runs.

    Each round `propose()` returns a Failure, {name: body}, or a single
    target's body; the oracle checks the candidate, and `learn(point,
    sol_map)` takes its counterexample, returning a Failure to stop.  At
    most `rounds` candidates are proposed.  A verified (or unrefuted)
    candidate becomes a Solution using `used()` points.
    """
    for _ in range(rounds):
        deadline.check()
        cand = propose()
        if isinstance(cand, Failure):
            return cand
        if isinstance(cand, Term):
            cand = {targets[0].name: cand}
        sol = Solution(_defined_funs(targets, cand))
        sol_map = sol.as_map()
        verdict = oracle.verify(problem, sol_map, cfg)
        if verdict.kind != "counterexample":
            sol.verdict, sol.points_used = verdict, used()
            return sol
        stop = learn(verdict.point, sol_map)
        if stop is not None:
            return stop
    return Failure("budget-exhausted", "round cap reached")


def _point_cegis(problem, targets, propose, budget, deadline, cfg):
    """`_cegis` over the counterexample points themselves: `propose(points)`
    sees every point so far, and a repeated point stalls the loop."""
    points = []

    def learn(point, _sol_map):
        if point in points:
            return Failure("oracle-stall", "repeated counterexample")
        points.append(point)

    return _cegis(
        problem, targets, lambda: propose(points), learn, lambda: len(points),
        budget.max_points + 1, deadline, cfg,
    )


def _run(problem, budget, solve):
    """`solve(pclass, budget, deadline)` under one wallclock deadline, on
    the problem's class; BudgetExceeded becomes a Failure."""
    budget = budget or Budget()
    deadline = _Deadline(budget.wallclock)
    pclass = classify(problem)
    if pclass.conflict is not None:
        return Failure("conflicting-examples", pclass.conflict)
    try:
        return solve(pclass, budget, deadline)
    except BudgetExceeded as e:
        return Failure("budget-exhausted", str(e))


def cegis_solve(problem, budget=None, cfg=None):
    """Enumerative CEGIS; returns Solution or Failure."""

    def solve(pclass, budget, deadline):
        if pclass.kind == "pbe":
            return _solve_pbe(problem, pclass.examples, (None, None), budget, deadline)
        return _point_cegis(
            problem, problem.targets,
            lambda points: _consistent_candidate(problem, points, budget, deadline),
            budget, deadline, cfg,
        )

    return _run(problem, budget, solve)


def _consistent_candidate(problem, points, budget, deadline):
    """Product enumeration of the targets' terms, ordered by combined size."""
    targets = problem.targets
    envs = [collect_envs(problem, t, points) for t in targets]
    ens = [_enum_for(problem, t, e, budget, deadline) for t, e in zip(targets, envs)]
    check, all_ids = _point_check(problem, points, envs), frozenset(range(len(points)))
    n = len(targets)
    last = ens[-1]
    for total in range(n, budget.max_term_size * n + 1):
        for sizes in _compositions(total, n):
            # a size past the cap has an empty bank
            banks = [ens[i].bank(ens[i].grammar.start, sizes[i]) for i in range(n - 1)]
            if any(not b for b in banks):
                continue
            for prefix in itertools.product(*banks):

                def completes(term, vec, prefix=prefix):
                    deadline.check()
                    return check(prefix + ((term, vec),)) == all_ids

                # the last target's size is built only up to its first
                # term that completes the prefix
                hit = last.find(last.grammar.start, sizes[-1], completes)
                if hit is not None:
                    return {t.name: entry[0] for t, entry in zip(targets, prefix + (hit,))}
    if all(_exhaust_reason(e).reason == "grammar-exhausted" for e in ens):
        return Failure("grammar-exhausted")
    return Failure("budget-exhausted", "size cap reached")


# ---------------------------------------------------------------------------
# Decision trees


@dataclass
class Leaf:
    term: Term


@dataclass
class Branch:
    pred: object  # payload understood by the flattener
    then: object
    other: object


def _entropy(labels, ids):
    counts = Counter(labels[i] for i in ids)
    total = len(ids)
    h = 0.0
    for c in counts.values():
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def build_decision_tree(ids, labels, leaf, preds, depth=None):
    """Greedy information-gain (ID3) tree over example ids.

    `labels` maps each id to its class; `leaf(ids)` returns the Leaf for
    ids that need no split, else None; `preds` is a list of (payload,
    bool vector indexed by id).  With a `depth`, no split is made that
    many levels down.  The first predicate of highest gain wins.  Returns
    Leaf/Branch, or None when no predicate makes progress.
    """
    ids = frozenset(ids)
    node = leaf(ids)
    if node is not None:
        return node
    if depth is not None and depth <= 0:
        return None
    base = _entropy(labels, ids)
    best = None
    best_gain = -1.0
    for payload, vec in preds:
        yes = frozenset(i for i in ids if vec[i])
        no = ids - yes
        if not yes or not no:
            continue
        gain = base - (
            len(yes) / len(ids) * _entropy(labels, yes)
            + len(no) / len(ids) * _entropy(labels, no)
        )
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = (payload, yes, no)
    if best is None:
        return None
    payload, yes, no = best
    sub = None if depth is None else depth - 1
    then = build_decision_tree(yes, labels, leaf, preds, sub)
    other = build_decision_tree(no, labels, leaf, preds, sub)
    if then is None or other is None:
        return None
    return Branch(payload, then, other)


def _conditional_kind(grammar):
    """(kind, cond_nt) where kind in {"ite", "if0", "qm", None}: the first
    production of the first of those kinds the grammar has."""
    found = {}
    for _, templates in grammar.productions:
        for t in templates:
            if not isinstance(t, Apply):
                continue
            if t.op in ("ite", "if0") and len(t.args) == 3 and isinstance(t.args[0], Hole):
                found.setdefault(t.op, t.args[0].nonterminal)
            elif t.op == "qm" and len(t.args) == 2:
                found.setdefault("qm", None)
    return next(((k, found[k]) for k in ("ite", "if0", "qm") if k in found), (None, None))


def _flatten_dt(tree, kind, sort):
    if isinstance(tree, Leaf):
        return tree.term
    if kind not in ("ite", "if0"):
        raise SygusError(f"cannot flatten decision tree for conditional kind {kind!r}")
    return Apply(kind, (tree.pred, _flatten_dt(tree.then, kind, sort), _flatten_dt(tree.other, kind, sort)), sort)


# ---------------------------------------------------------------------------
# Unification (enumeration + decision-tree learning)


def _string_keep(expected_outputs):
    """Pruning hook for string PBE: composite string-sorted terms must
    evaluate to a substring of the example output at every point."""

    def keep(nt, term, vec):
        if term.sort != STRING:
            return True
        return all(isinstance(v, str) and v in out for v, out in zip(vec, expected_outputs))

    return keep


def _cover_and_stitch(en, n, covers, cond, sort, budget, deadline, check=None):
    """Return the first enumerated term that `covers(term, vec)` says is
    right on all of ids 0..n-1.  With a conditional `cond` = (kind,
    cond_nt), terms with new covers are kept, and stitched for each new
    one once together they cover every id; a stitched term that passes
    `check` is returned.  Else the Failure is the last stitch's, if one
    was tried; `cover-stall` if a finite grammar with a conditional ran
    out; else `_exhaust_reason`."""
    kind, cond_nt = cond
    all_ids = frozenset(range(n))
    kept, seen, union = [], set(), set()
    failure = None
    for term, vec in en.enumerate():
        deadline.check()
        cov = covers(term, vec)
        if cov == all_ids:
            return term
        if kind is None or not cov:
            continue
        # qm chains select on the sign of the branch term, so two terms
        # with the same cover but different signs are not interchangeable.
        key = (cov, tuple(v >= 0 for v in vec)) if kind == "qm" else cov
        if key in seen:
            continue
        seen.add(key)
        kept.append((term, cov, vec))
        union |= cov
        if union != all_ids:
            continue
        stitched = _stitch(en, kept, all_ids, kind, cond_nt, sort, budget)
        if isinstance(stitched, Failure):
            failure = stitched
        elif check is None or check(stitched):
            return stitched
        else:
            failure = Failure("cover-stall", "stitched candidate fails a point")
    if failure is not None:
        return failure
    out = _exhaust_reason(en)
    if kind is not None and out.reason == "grammar-exhausted":
        return Failure("cover-stall")
    return out


def _solve_pbe(problem, examples, cond, budget, deadline):
    """Cover-and-stitch over the examples, with `cond` as the conditional
    to stitch with; (None, None) enumerates only."""
    target = problem.targets[0]
    params = [n for n, _ in target.params]
    envs = [dict(zip(params, ex.inputs)) for ex in examples]
    expected = tuple(ex.output for ex in examples)
    keep = _string_keep([str(o) for o in expected]) if target.ret == STRING else None
    en = Enumerator(
        target.grammar, envs, problem.macro_map(), max_size=budget.max_term_size, keep=keep,
        deadline=deadline,
    )
    # no size is built past the first term that meets every example
    en.goal = (en.grammar.start, lambda _term, vec: vec == expected)

    def covers(_term, vec):
        return frozenset(i for i, (v, out) in enumerate(zip(vec, expected)) if v == out)

    found = _cover_and_stitch(en, len(examples), covers, cond, target.ret, budget, deadline)
    if isinstance(found, Failure):
        return found
    sol = Solution(_defined_funs([target], {target.name: found}), points_used=len(examples))
    sol.verdict = oracle.verify(problem, sol.as_map(), None)
    return sol


def _predicate_pool(en, nt, max_size, kind="ite"):
    """(term, bool vector) for the `nt` terms up to `max_size`, in
    enumeration order, dropping constant and already-seen vectors.

    An `if0` condition selects where it equals 1, any other condition
    where it is truthy.  A pool `en` refuses for the deadline raises
    BudgetExceeded, before any size when the sizes up to `max_size` are
    predicted not to fit: a pool cut short would make the tree, and so
    the outcome, depend on the clock.
    """
    pool = []
    seen = set()
    # One request for every size up to the cap, so the deadline refuses it
    # whole; sizes past the cap are never built, even when pruning has left
    # the banks empty.
    en.bank(nt, max_size)
    for s in range(1, max_size + 1):
        for term, vec in en.bank(nt, s):
            if kind == "if0":
                bvec = tuple(v == 1 for v in vec)
            else:
                bvec = tuple(bool(v) for v in vec)
            if bvec in seen or all(bvec) or not any(bvec):
                continue
            seen.add(bvec)
            pool.append((term, bvec))
    return pool


def _stitch(en, cover_terms, all_ids, kind, cond_nt, sort, budget):
    """Join (term, cover, vector) triples that together cover `all_ids`
    into one term: a qm chain, or a decision tree over the `cond_nt`
    predicates.  Returns a Term or a Failure."""
    if kind == "qm":
        return _stitch_qm(cover_terms, all_ids)
    preds = _predicate_pool(en, cond_nt, min(budget.max_pred_size, budget.max_term_size), kind)
    # each id is labelled with the first term covering it
    labels = {i: next(k for k, (_, c, _) in enumerate(cover_terms) if i in c) for i in all_ids}

    def leaf(ids):
        return next((Leaf(t) for t, c, _ in cover_terms if ids <= c), None)

    tree = build_decision_tree(all_ids, labels, leaf, preds)
    if tree is None:
        return Failure("predicate-exhausted")
    return _flatten_dt(tree, kind, sort)


def _stitch_qm(cover_terms, ids):
    """Chain of (qm t rest): t is selected wherever it is nonnegative, so a
    branch term doubles as its own selection condition."""
    ids = frozenset(ids)
    for term, cover, _vec in cover_terms:
        if ids <= cover:
            return term
    for term, cover, vec in cover_terms:
        selected = frozenset(i for i in ids if vec[i] >= 0)
        if not selected or selected == ids:
            continue
        if selected <= cover:
            rest = _stitch_qm(cover_terms, ids - selected)
            if isinstance(rest, Term):
                return Apply("qm", (term, rest), term.sort)
    return Failure("predicate-exhausted")


def unify_solve(problem, budget=None, cfg=None):
    """Enumeration + unification; returns Solution or Failure."""

    def solve(pclass, budget, deadline):
        if pclass.kind == "invariant":
            return _ice_solve(problem, budget, deadline, cfg)
        if pclass.kind == "pbe":
            return _solve_pbe(problem, pclass.examples, pclass.cond, budget, deadline)
        if pclass.kind != "conditional":
            many = len(problem.targets) != 1
            return Failure("no-conditional-production", "unification handles a single target" if many else "")
        target = problem.targets[0]
        return _point_cegis(
            problem, [target],
            lambda points: _unify_candidate(problem, target, points, pclass.cond, budget, deadline),
            budget, deadline, cfg,
        )

    return _run(problem, budget, solve)


def _unify_candidate(problem, target, points, cond, budget, deadline):
    """One round of cover-and-stitch over the current point set."""
    envs = collect_envs(problem, target, points)
    en = _enum_for(problem, target, envs, budget, deadline)
    # stitching reads environment i as point i: one application per point
    aligned = len(_applications(problem, target)) == 1
    check = _point_check(problem, points, [envs])
    found = _cover_and_stitch(
        en, len(points), lambda term, vec: check([(term, vec)]), cond if aligned else (None, None), target.ret,
        budget, deadline, lambda term: len(check([(term, ())])) == len(points),
    )
    if isinstance(found, Failure) and not aligned:
        return Failure("cover-stall", "multiple target invocations per point")
    return found


# ---------------------------------------------------------------------------
# Invariant synthesis (ICE-style decision-tree learning)


def _ice_seed(problem, spec, state_names, budget):
    """Initial ICE examples from the specification alone.

    Any state satisfying the pre-condition must be inside the invariant;
    any state violating the post-condition must be outside.  Implication
    pairs come from executing the transition relation on sampled states,
    all through generated functions of the state values by position.
    """
    macro_map = problem.macro_map()
    pre_params, pre_body = macro_map[spec.pre_name]
    post_params, post_body = macro_map[spec.post_name]
    trans_params, trans_body = macro_map[spec.trans_name]
    n = len(state_names)
    radius = 1
    while (2 * radius + 3) ** n <= 700:
        radius += 1
    grid = itertools.product(range(-radius, radius + 1), repeat=n)
    rng = random.Random(budget.seed)
    states = list(grid)
    for _ in range(200):
        states.append(tuple(rng.randint(-8, 8) for _ in range(n)))
    states = list(dict.fromkeys(states))

    # Successors: solve the transition equations for the primed variables.
    unprimed = set(trans_params[:n])
    primed = trans_params[n:]
    defs = {
        v: [e for e in es if free_vars(e) <= unprimed]
        for v, es in var_equations([trans_body], primed).items()
    }
    combos = []
    if all(defs.get(p) for p in primed):
        combos = list(itertools.product(*[defs[p][:3] for p in primed]))[:81]
    em = SourceEmitter(macro_map)

    def function(params, bodies):  # a lambda of `params` returning the tuple of `bodies`
        names = {p: em.fresh() for p in params}
        return f"lambda {', '.join(names.values())}: ({''.join(em.expr(b, names) + ',' for b in bodies)})"

    sources = [function(pre_params, [pre_body]), function(post_params, [post_body]),
               function(trans_params, [trans_body])]
    sources += [function(trans_params[:n], combo) for combo in combos]
    pre, post, trans, *successors = em.build(f"_fns = ({''.join(f + ',' for f in sources)})", "_fns")

    pos = {s for s in states if pre(*s)[0]}
    neg = {s for s in states if not post(*s)[0]}
    # Keep the learner's example set small; verification supplies any
    # point the subsample fails to pin down.
    if len(neg) > 120:
        neg = set(rng.sample(sorted(neg), 120))

    imps = set()
    for s in states:
        for successor in successors:
            try:
                succ = successor(*s)
            except Exception:
                continue
            if trans(*s, *succ)[0]:
                imps.add((s, succ))
        if len(imps) > 4000:
            break
    return pos, neg, imps


def _ice_solve(problem, budget, deadline, cfg):
    spec = problem.invariant_spec
    target = problem.target(spec.inv_name)
    state_names = [n for n, _ in spec.state_vars]
    vc_base = len(problem.constraints) - 3
    pos, neg, imps = _ice_seed(problem, spec, state_names, budget)
    if _ice_closure(pos, neg, imps):
        return Failure("ice-conflict", "pre/trans/post admit no invariant")

    def learn(p, sol_map):
        ev = Evaluator(solution_interpretations(problem, sol_map))
        state = tuple(p[n] for n in state_names)
        state_p = tuple(p[n + "!"] for n in state_names)
        progressed = False
        for off, c in enumerate(problem.constraints[vc_base:]):
            if ev.eval(c, p):
                continue
            if off == 0:
                if state not in pos:
                    pos.add(state)
                    progressed = True
            elif off == 1:
                if (state, state_p) not in imps:
                    imps.add((state, state_p))
                    progressed = True
            else:
                if state not in neg:
                    neg.add(state)
                    progressed = True
        if not progressed:
            return Failure("oracle-stall", "counterexample added no new example")
        if _ice_closure(pos, neg, imps):
            return Failure("ice-conflict", "an example is forced both inside and outside")

    # One round fewer than point-based CEGIS: the cap counts rounds here.
    return _cegis(
        problem, [target],
        lambda: _ice_learn(target, state_names, pos, neg, imps, budget, deadline),
        learn, lambda: len(pos) + len(neg) + len(imps), budget.max_points, deadline, cfg,
    )


def _ice_closure(pos, neg, imps):
    """Propagate implication endpoints; True on pos/neg conflict."""
    changed = True
    while changed:
        changed = False
        for a, b in imps:
            if a in pos and b not in pos:
                pos.add(b)
                changed = True
            if b in neg and a not in neg:
                neg.add(a)
                changed = True
    return bool(pos & neg)


def _ice_learn(target, state_names, pos, neg, imps, budget, deadline):
    """Boolean-combination learner over enumerated atoms.

    Labeled states become a true/false decision tree; unlabeled
    implication endpoints are repaired optimistically (forcing the
    successor inside) and relearned.
    """
    t_lit = Apply("=", (Lit(0, INT), Lit(0, INT)), BOOL)
    f_lit = Apply("<", (Lit(0, INT), Lit(0, INT)), BOOL)
    if not pos and not neg:
        return t_lit

    pos_w, neg_w = set(pos), set(neg)
    for _ in range(1 + min(len(imps), 40)):
        states = sorted(pos_w | neg_w)
        envs = [dict(zip(state_names, s)) for s in states]
        index = {s: i for i, s in enumerate(states)}
        body = _ice_tree(target, states, envs, index, pos_w, neg_w, budget, deadline, t_lit, f_lit)
        if isinstance(body, Failure):
            return body
        inv = Evaluator().compile(body)
        holds = lambda s: bool(inv(dict(zip(state_names, s))))
        broken = [(a, b) for a, b in imps if holds(a) and not holds(b)]
        if not broken:
            return body
        for a, b in broken:
            if b not in neg_w:
                pos_w.add(b)
            else:
                neg_w.add(a)
        if pos_w & neg_w:
            return Failure("ice-conflict")
    return body


def _octagon_atoms(target, bool_nt, envs):
    """Curated comparison atoms over sums and differences of parameters.

    Linear invariants usually relate two variables or two pairwise sums;
    the grammar enumerator reaches such atoms only at size 7, long after
    small atoms have let the tree overfit.  Keeps the first atom per
    vector that the grammar's Bool nonterminal derives; one memo decides.
    """
    int_vars = [Var(n, s) for n, s in target.params if s == INT]
    terms = list(int_vars) + [Lit(0, INT), Lit(1, INT)]
    for i, u in enumerate(int_vars):
        for v in int_vars[i:]:
            terms.append(Apply("+", (u, v), INT))
        for v in int_vars:
            if u is not v:
                terms.append(Apply("-", (u, v), INT))
    # Each term is evaluated once over `envs`; an atom over a term that
    # fails to evaluate is dropped.
    compile_term = Evaluator().compile
    values = []
    for t in terms:
        try:
            values.append(tuple(map(compile_term(t), envs)))
        except Exception:
            values.append(None)
    derivable = oracle.Derivable(target.grammar)
    asked = []  # every atom asked about outlives `derivable`, whose memo keys on id
    kept = {}  # vector -> its first derivable atom
    for op, cmp in (("=", operator.eq), ("<", operator.lt), ("<=", operator.le)):
        for a, va in zip(terms, values):
            for b, vb in zip(terms, values):
                if a == b or va is None or vb is None:
                    continue
                vec = tuple(map(cmp, va, vb))
                if vec in kept or all(vec) or not any(vec):
                    continue
                asked.append(Apply(op, (a, b), BOOL))
                if derivable(bool_nt, asked[-1]):
                    kept[vec] = asked[-1]
    return [(t, v) for v, t in kept.items()]


def _ice_tree(target, states, envs, index, pos, neg, budget, deadline, t_lit, f_lit):
    grammar = target.grammar
    bool_nt = None
    for name, sort in grammar.nonterminals:
        if sort == BOOL:
            bool_nt = name
            break
    if bool_nt is None:
        return Failure("no-conditional-production", "grammar has no Bool nonterminal")
    ids = frozenset(range(len(states)))
    labels = {i: (states[i] in pos) for i in ids}

    def leaf(subset):
        if all(labels[i] for i in subset):
            return Leaf(True)
        if not any(labels[i] for i in subset):
            return Leaf(False)
        return None

    curated = None
    enum_cache = {}

    def pool(stage):
        nonlocal curated
        if curated is None:
            curated = _octagon_atoms(target, bool_nt, envs)
        if stage == 0:
            return curated
        cap = 2 * stage + 1
        if cap not in enum_cache:
            en = Enumerator(grammar, envs, max_size=cap, deadline=deadline)
            enum_cache[cap] = _predicate_pool(en, bool_nt, cap)
        return curated + enum_cache[cap]

    max_stage = max(1, (budget.max_pred_size - 1) // 2)
    # Cheap atom pools first, and within a pool shallow trees first: a
    # depth-limited fit with richer atoms beats a deep overfit chain.
    for stage in range(0, max_stage + 1):
        for depth in (3, 5, None):
            deadline.check()
            preds = pool(stage)
            dedup = {}
            for t, v in preds:
                dedup.setdefault(v, t)
            preds = [(t, v) for v, t in dedup.items()]
            tree = build_decision_tree(ids, labels, leaf, preds, depth)
            if tree is not None:
                return _dt_to_bool(tree, t_lit, f_lit)
    return Failure("predicate-exhausted")


def _dt_to_bool(tree, t_lit, f_lit):
    """Flatten a true/false tree into and/or/not form (the CLIA Bool
    nonterminal has no ite)."""
    paths = []

    def go(node, conds):
        if isinstance(node, Leaf):
            if node.term is True:
                paths.append(list(conds))
            return
        go(node.then, conds + [(node.pred, True)])
        go(node.other, conds + [(node.pred, False)])

    go(tree, [])
    if not paths:
        return f_lit
    disjuncts = []
    for conds in paths:
        if not conds:
            return t_lit
        lits = [p if polarity else Apply("not", (p,), BOOL) for p, polarity in conds]
        disjuncts.append(functools.reduce(lambda a, b: Apply("and", (a, b), BOOL), lits))
    return functools.reduce(lambda a, b: Apply("or", (a, b), BOOL), disjuncts)


# ---------------------------------------------------------------------------
# Nugget generation


MAX_NUGGET_BANK = 500_000  # terms enumerated before generate_nuggets gives up


def generate_nuggets(grammar, k, input_sample, interpretations=None):
    """Size-k terms observationally distinct (on the sample) from every
    smaller term.  The equivalence check is sampling-based, so the result
    over-approximates true nuggets."""
    if k < 1:
        raise ValueError("k must be >= 1")
    en = Enumerator(grammar, input_sample, interpretations, max_size=k, prune=False)
    for s in range(1, k + 1):
        # unpruned, every candidate is banked: refuse a size before building it
        if en.constructed + en.size_cost(s) > MAX_NUGGET_BANK:
            raise BudgetExceeded(f"more than {MAX_NUGGET_BANK} terms up to size {s}")
        en.ensure(s)
    seen = {vec for s in range(1, k) for _, vec in en.bank(grammar.start, s)}
    return [term for term, vec in en.bank(grammar.start, k) if vec not in seen]
