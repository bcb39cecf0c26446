"""Synthesis engines.

Two strategies over the same enumeration machinery:

* `cegis_solve` — size-ordered grammar enumeration with
  observational-equivalence pruning proposes each candidate.
* `unify_solve` — cover small terms over the current point set, then
  stitch them with enumerated predicates; invariant problems use an
  ICE-style variant that learns a Boolean combination of enumerated
  atoms from positive, negative and implication examples.

Plain CEGIS, unification and the ICE variant share one
counterexample-guided loop, `_cegis`: propose a candidate, verify it,
then learn from the counterexample or stall.  PBE problems skip the
loop, since their examples are the whole specification.  Stitching and
invariant learning grow their trees with one greedy information-gain
ID3, `build_decision_tree`, over predicate pools from one builder,
`_predicate_pool`.

Enumeration order is total and reproducible: by size, then production
index, then recursive argument order.
"""

from __future__ import annotations

import itertools
import operator
import time
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
    template_fixed_size,
    template_holes,
    var_equations,
    walk,
)
from . import oracle
from .semantics import Evaluator, TreeEvaluator, builtin_impl, default_value, solution_interpretations


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


class Enumerator:
    """Per-grammar term banks, one per (nonterminal, size).

    Every banked term carries its evaluation vector over `envs`; with
    pruning on, at most one term per distinct vector is kept per
    nonterminal.  With no observation points the single default
    environment (Int 0, Bool false, BV 0, String "") still folds
    constants.
    """

    def __init__(self, grammar: Grammar, envs=None, interpretations=None, max_size=12, prune=True, keep=None):
        self.grammar = grammar
        self.interpretations = dict(interpretations or {})
        self.evaluator = TreeEvaluator(self.interpretations)
        self.max_size = max_size
        self.prune = prune
        self.keep = keep
        self.envs = list(envs) if envs else [self._default_env()]
        self._nts = [n for n, _ in grammar.nonterminals]
        self._prods = {nt: self._prepare(nt) for nt in self._nts}
        self._bank = {}
        self._sigs = {nt: {} for nt in self._nts}
        self._alias_pos = {}
        self._done = 0
        self.constructed = 0

    def _default_env(self):
        env = {}
        for _, templates in self.grammar.productions:
            for tmpl in templates:
                for node in walk(tmpl):
                    if isinstance(node, Var):
                        env[node.name] = default_value(node.sort)
        return env

    def _prepare(self, nt):
        prods = []
        for idx, tmpl in enumerate(self.grammar.prods(nt)):
            if _contains_let(tmpl):
                continue  # let productions are not enumerated
            if isinstance(tmpl, Hole):
                prods.append(("alias", idx, tmpl.nonterminal))
                continue
            holes = template_holes(tmpl)
            fn = self._compile(tmpl)
            if holes:
                prods.append(("comp", idx, tmpl, [h.nonterminal for h in holes], template_fixed_size(tmpl), fn))
            else:
                prods.append(("leaf", idx, tmpl, fn))
        return prods

    def _compile(self, tmpl):
        """Build fn(kid_values, env) -> value evaluating the template."""
        counter = itertools.count()

        def go(node):
            if isinstance(node, Hole):
                pos = next(counter)
                return lambda kids, env: kids[pos]
            if isinstance(node, Var):
                name = node.name
                return lambda kids, env: env[name]
            if isinstance(node, Lit):
                v = node.value
                return lambda kids, env: v
            if isinstance(node, Apply):
                fns = [go(a) for a in node.args]
                interp = self.interpretations.get(node.op)
                if interp is not None:
                    params, body = interp
                    ev = self.evaluator

                    def apply_interp(kids, env, fns=fns, params=params, body=body, ev=ev):
                        return ev.eval(body, dict(zip(params, [f(kids, env) for f in fns])))

                    return apply_interp
                impl = builtin_impl(node.op, node.sort)
                return lambda kids, env: impl(*[f(kids, env) for f in fns])
            raise SygusError(f"cannot compile template node {node!r}")

        return go(tmpl)

    def bank(self, nt, size):
        self.ensure(size)
        return self._bank.get((nt, size), [])

    def ensure(self, size):
        while self._done < min(size, self.max_size):
            self._build_size(self._done + 1)
            self._done += 1

    def _build_size(self, s):
        for nt in self._nts:
            self._bank[(nt, s)] = []
        changed = True
        while changed:  # fixpoint for alias chains at equal size
            changed = False
            for nt in self._nts:
                out = self._bank[(nt, s)]
                for prod in self._prods[nt]:
                    kind = prod[0]
                    if kind == "leaf":
                        _, idx, tmpl, fn = prod
                        if s == template_fixed_size(tmpl) and not self._seen_leaf(nt, idx, s):
                            if self._try_add(nt, s, tmpl, fn, []):
                                changed = True
                    elif kind == "alias":
                        _, idx, sub = prod
                        src = self._bank.get((sub, s), [])
                        key = (nt, idx, s)
                        pos = self._alias_pos.get(key, 0)
                        while pos < len(src):
                            term, vec = src[pos]
                            pos += 1
                            if self._admit(nt, term, vec):
                                out.append((term, vec))
                                changed = True
                        self._alias_pos[key] = pos
                    else:
                        _, idx, tmpl, hole_nts, fixed, fn = prod
                        key = (nt, idx, s)
                        if key in self._alias_pos:
                            continue  # comp productions are built once per size
                        self._alias_pos[key] = -1
                        budget = s - fixed
                        k = len(hole_nts)
                        if budget < k:
                            continue
                        for sizes in _compositions(budget, k):
                            banks = [self._bank.get((hole_nts[i], sizes[i]), []) for i in range(k)]
                            if any(not b for b in banks):
                                continue
                            for combo in itertools.product(*banks):
                                if self._try_add(nt, s, tmpl, fn, combo):
                                    changed = True

    def _seen_leaf(self, nt, idx, s):
        key = (nt, idx, s, "leaf")
        if key in self._alias_pos:
            return True
        self._alias_pos[key] = -1
        return False

    def _try_add(self, nt, s, tmpl, fn, combo):
        kid_vecs = [c[1] for c in combo]
        vec = []
        for i, env in enumerate(self.envs):
            kids = [kv[i] for kv in kid_vecs]
            vec.append(fn(kids, env))
        vec = tuple(vec)
        self.constructed += 1
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
            self.ensure(s)
            yield from self._bank.get((nt, s), [])

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
            best = None
            for prod in self._prods[nt]:
                if prod[0] == "leaf":
                    size = template_fixed_size(prod[2])
                elif prod[0] == "alias":
                    size = go(prod[2])
                else:
                    size = prod[4]
                    for h in prod[3]:
                        sub = go(h)
                        if sub is None:
                            size = None
                            break
                        size += sub
                if size is None:
                    visiting.discard(nt)
                    memo[nt] = None
                    return None
                best = size if best is None else max(best, size)
            visiting.discard(nt)
            memo[nt] = best
            return best

        return go(self.grammar.start)


def _contains_let(t):
    return any(isinstance(n, Let) for n in walk(t))


def enumerate_all(grammar, nt, max_size, interpretations=None, envs=None):
    """Unpruned brute-force enumeration; the reference for pruning checks."""
    en = Enumerator(grammar, envs, interpretations, max_size, prune=False)
    return [t for t, _ in en.enumerate(nt)]


# ---------------------------------------------------------------------------
# PBE extraction


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


# ---------------------------------------------------------------------------
# Candidate search helpers


def _satisfies_all(problem, sol_map, points):
    ev = Evaluator(solution_interpretations(problem, sol_map))
    for p in points:
        for c in problem.constraints:
            if not ev.eval(c, p):
                return False
    return True


def collect_envs(problem, target, points):
    """Parameter environments for `target` induced by the points.

    Each application of the target whose arguments mention no synthesis
    target is evaluated at every point; the resulting argument tuples
    become observation environments.
    """
    names = problem.target_names()
    macro_map = problem.macro_map()
    apps = [
        t.args
        for c in problem.constraints
        for t in walk(expand_macros(c, macro_map))
        if isinstance(t, Apply)
        and t.op == target.name
        and not any(isinstance(n, Apply) and n.op in names for a in t.args for n in walk(a))
    ]
    if not points or not apps:
        return []
    ev = Evaluator(macro_map)
    envs = []
    seen = set()
    param_names = [n for n, _ in target.params]
    for p in points:
        for args in apps:
            vals = tuple(ev.eval(a, p) for a in args)
            if vals in seen:
                continue
            seen.add(vals)
            envs.append(dict(zip(param_names, vals)))
    return envs


def _enum_for(problem, target, points, budget, keep=None, envs=None):
    if envs is None:
        envs = collect_envs(problem, target, points)
    return Enumerator(
        target.grammar,
        envs,
        problem.macro_map(),
        max_size=budget.max_term_size,
        keep=keep,
    )


def _exhaust_reason(en):
    finite = en.max_finite_size()
    if finite is not None and finite <= en.max_size:
        return Failure("grammar-exhausted")
    return Failure("budget-exhausted", "size cap reached")


class _Deadline:
    def __init__(self, seconds):
        self.t0 = time.monotonic()
        self.limit = seconds

    def expired(self):
        return time.monotonic() - self.t0 > self.limit


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
        if deadline.expired():
            break
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
    return Failure("budget-exhausted")


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


def cegis_solve(problem, budget=None, cfg=None):
    """Enumerative CEGIS; returns Solution or Failure."""
    budget = budget or Budget()
    deadline = _Deadline(budget.wallclock)
    try:
        examples = extract_pbe_points(problem)
    except ConflictingExamples as e:
        return Failure("conflicting-examples", str(e))
    if examples is not None:
        return _solve_pbe(problem, examples, budget, deadline, unify=False)
    return _point_cegis(
        problem, problem.targets,
        lambda points: _consistent_candidate(problem, points, budget, deadline),
        budget, deadline, cfg,
    )


def _consistent_candidate(problem, points, budget, deadline):
    """Product enumeration of the targets' terms, ordered by combined size."""
    targets = problem.targets
    ens = [_enum_for(problem, t, points, budget) for t in targets]
    params = [[n for n, _ in t.params] for t in targets]
    n = len(targets)
    for total in range(n, budget.max_term_size * n + 1):
        for sizes in _compositions(total, n):
            # a size past the cap has an empty bank
            banks = [ens[i].bank(ens[i].grammar.start, sizes[i]) for i in range(n)]
            if any(not b for b in banks):
                continue
            for combo in itertools.product(*banks):
                if deadline.expired():
                    return Failure("budget-exhausted")
                sol_map = {
                    targets[i].name: (params[i], combo[i][0]) for i in range(n)
                }
                if _satisfies_all(problem, sol_map, points):
                    return {targets[i].name: combo[i][0] for i in range(n)}
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


def _entropy(counts):
    import math

    total = sum(counts.values())
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
    base = _entropy(_counts(labels, ids))
    best = None
    best_gain = -1.0
    for payload, vec in preds:
        yes = frozenset(i for i in ids if vec[i])
        no = ids - yes
        if not yes or not no:
            continue
        gain = base - (
            len(yes) / len(ids) * _entropy(_counts(labels, yes))
            + len(no) / len(ids) * _entropy(_counts(labels, no))
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


def _counts(labels, ids):
    out = {}
    for i in ids:
        out[labels[i]] = out.get(labels[i], 0) + 1
    return out


def _conditional_kind(grammar):
    """(kind, cond_nt) where kind in {"ite", "if0", "qm", None}."""
    for _, templates in grammar.productions:
        for tmpl in templates:
            if isinstance(tmpl, Apply) and tmpl.op == "ite" and len(tmpl.args) == 3:
                c = tmpl.args[0]
                if isinstance(c, Hole):
                    return "ite", c.nonterminal
    for _, templates in grammar.productions:
        for tmpl in templates:
            if isinstance(tmpl, Apply) and tmpl.op == "if0" and len(tmpl.args) == 3:
                c = tmpl.args[0]
                if isinstance(c, Hole):
                    return "if0", c.nonterminal
    for _, templates in grammar.productions:
        for tmpl in templates:
            if isinstance(tmpl, Apply) and tmpl.op == "qm" and len(tmpl.args) == 2:
                return "qm", None
    return None, None


def _flatten_dt(tree, kind, sort):
    if isinstance(tree, Leaf):
        return tree.term
    a = _flatten_dt(tree.then, kind, sort)
    b = _flatten_dt(tree.other, kind, sort)
    if kind == "ite":
        return Apply("ite", (tree.pred, a, b), sort)
    if kind == "if0":
        return Apply("if0", (tree.pred, a, b), sort)
    raise SygusError(f"cannot flatten decision tree for conditional kind {kind!r}")


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


def _solve_pbe(problem, examples, budget, deadline, unify=True):
    target = problem.targets[0]
    params = [n for n, _ in target.params]
    envs = [dict(zip(params, ex.inputs)) for ex in examples]
    expected = tuple(ex.output for ex in examples)
    keep = None
    if target.ret == STRING:
        keep = _string_keep([str(o) for o in expected])
    en = Enumerator(
        target.grammar, envs, problem.macro_map(), max_size=budget.max_term_size, keep=keep
    )
    all_ids = frozenset(range(len(examples)))
    kind, cond_nt = _conditional_kind(target.grammar) if unify else (None, None)
    cover_terms = []
    seen_covers = set()
    union = set()
    found = None
    for term, vec in en.enumerate():
        if deadline.expired():
            return Failure("budget-exhausted")
        cov = frozenset(i for i in all_ids if vec[i] == expected[i])
        if cov == all_ids:
            found = term
            break
        key = (cov, tuple(v >= 0 for v in vec)) if kind == "qm" else cov
        if unify and cov and key not in seen_covers:
            seen_covers.add(key)
            cover_terms.append((term, cov, vec))
            union |= cov
            if union == all_ids and kind is not None:
                stitched = _stitch(
                    en, cover_terms, all_ids, kind, cond_nt, target.ret, budget, deadline
                )
                if isinstance(stitched, Term):
                    found = stitched
                    break
                if isinstance(stitched, Failure) and stitched.reason == "budget-exhausted":
                    return stitched
                # keep enumerating; a direct solution may still turn up
    if found is None:
        if unify and union != all_ids and _exhaust_reason(en).reason == "grammar-exhausted":
            return Failure("cover-stall")
        return _exhaust_reason(en)
    sol = Solution(_defined_funs([target], {target.name: found}), points_used=len(examples))
    sol.verdict = oracle.verify(problem, sol.as_map(), None)
    return sol


def _predicate_pool(en, nt, max_size, kind="ite", deadline=None):
    """(term, bool vector) for the `nt` terms up to `max_size`, in
    enumeration order, dropping constant and already-seen vectors.

    An `if0` condition selects where it equals 1, any other condition
    where it is truthy.  Returns (pool, expired): with a `deadline`, the
    pool stops where the deadline is found expired.
    """
    pool = []
    seen = set()
    # Read the banks by size: sizes past the cap are never built, even when
    # pruning has left the banks empty.
    for s in range(1, max_size + 1):
        for term, vec in en.bank(nt, s):
            if deadline is not None and deadline.expired():
                return pool, True
            if kind == "if0":
                bvec = tuple(v == 1 for v in vec)
            else:
                bvec = tuple(bool(v) for v in vec)
            if bvec in seen or all(bvec) or not any(bvec):
                continue
            seen.add(bvec)
            pool.append((term, bvec))
    return pool, False


def _stitch(en, cover_terms, all_ids, kind, cond_nt, sort, budget, deadline=None):
    """Join (term, cover, vector) triples that together cover `all_ids`
    into one term: a qm chain, or a decision tree over the `cond_nt`
    predicates.  Returns a Term or a Failure."""
    if kind == "qm":
        return _stitch_qm(cover_terms, all_ids)
    preds, expired = _predicate_pool(
        en, cond_nt, min(budget.max_pred_size, budget.max_term_size), kind, deadline
    )
    if expired:
        return Failure("budget-exhausted")
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
    budget = budget or Budget()
    deadline = _Deadline(budget.wallclock)
    if problem.invariant_spec is not None:
        return _ice_solve(problem, budget, deadline, cfg)
    try:
        examples = extract_pbe_points(problem)
    except ConflictingExamples as e:
        return Failure("conflicting-examples", str(e))
    if examples is not None:
        return _solve_pbe(problem, examples, budget, deadline, unify=True)
    if len(problem.targets) != 1:
        return Failure("no-conditional-production", "unification handles a single target")
    target = problem.targets[0]
    kind, cond_nt = _conditional_kind(target.grammar)
    if kind is None:
        return Failure("no-conditional-production")
    return _point_cegis(
        problem, [target],
        lambda points: _unify_candidate(problem, target, points, kind, cond_nt, budget, deadline),
        budget, deadline, cfg,
    )


def _unify_candidate(problem, target, points, kind, cond_nt, budget, deadline):
    """One round of cover-and-stitch over the current point set."""
    params = [n for n, _ in target.params]
    envs = collect_envs(problem, target, points)
    en = _enum_for(problem, target, points, budget, envs=envs)
    if not points:
        for term, _ in en.enumerate():
            return term
        return _exhaust_reason(en)
    aligned = len(envs) == len(points)  # single invocation per point
    all_ids = frozenset(range(len(points)))
    covers = []
    seen = set()
    union = set()
    stitched_failure = Failure("predicate-exhausted")
    for term, vec in en.enumerate():
        if deadline.expired():
            return Failure("budget-exhausted")
        sol = {target.name: (params, term)}
        cov = frozenset(i for i in all_ids if _satisfies_all(problem, sol, [points[i]]))
        if cov == all_ids:
            return term
        if not cov:
            continue
        # qm chains select on the sign of the branch term, so two terms
        # with the same cover but different signs are not interchangeable.
        key = (cov, tuple(v >= 0 for v in vec)) if kind == "qm" else cov
        if key in seen:
            continue
        seen.add(key)
        covers.append((term, cov, vec))
        union |= cov
        if union != all_ids or not aligned:
            continue
        result = _stitch(en, covers, all_ids, kind, cond_nt, target.ret, budget)
        if isinstance(result, Failure):
            stitched_failure = result
            continue
        sol = {target.name: (params, result)}
        if _satisfies_all(problem, sol, points):
            return result
        stitched_failure = Failure("cover-stall", "stitched candidate fails a point")
    if union != all_ids:
        if _exhaust_reason(en).reason == "grammar-exhausted":
            return Failure("cover-stall")
        return Failure("cover-stall", "size cap reached before full cover")
    if not aligned:
        return Failure("cover-stall", "multiple target invocations per point")
    return stitched_failure


# ---------------------------------------------------------------------------
# Invariant synthesis (ICE-style decision-tree learning)


def _ice_seed(problem, spec, state_names, budget):
    """Initial ICE examples from the specification alone.

    Any state satisfying the pre-condition must be inside the invariant;
    any state violating the post-condition must be outside.  Implication
    pairs come from executing the transition relation on sampled states.
    """
    import random as _random

    macro_map = problem.macro_map()
    ev = Evaluator(macro_map)
    pre_params, pre_body = macro_map[spec.pre_name]
    post_params, post_body = macro_map[spec.post_name]
    trans_params, trans_body = macro_map[spec.trans_name]
    n = len(state_names)
    radius = 1
    while (2 * radius + 3) ** n <= 700:
        radius += 1
    grid = itertools.product(range(-radius, radius + 1), repeat=n)
    rng = _random.Random(budget.seed)
    states = list(grid)
    for _ in range(200):
        states.append(tuple(rng.randint(-8, 8) for _ in range(n)))
    states = list(dict.fromkeys(states))

    pos, neg, imps = set(), set(), set()
    for s in states:
        if ev.eval(pre_body, dict(zip(pre_params, s))):
            pos.add(s)
        if not ev.eval(post_body, dict(zip(post_params, s))):
            neg.add(s)
    # Keep the learner's example set small; verification supplies any
    # point the subsample fails to pin down.
    if len(neg) > 120:
        neg = set(rng.sample(sorted(neg), 120))

    # Successors: solve the transition equations for the primed variables.
    unprimed = set(trans_params[:n])
    primed = trans_params[n:]
    defs = {
        v: [e for e in es if free_vars(e) <= unprimed]
        for v, es in var_equations([trans_body], primed).items()
    }
    if all(defs.get(p) for p in primed):
        combos = list(itertools.product(*[defs[p][:3] for p in primed]))[:81]
        for s in states:
            env = dict(zip(trans_params[:n], s))
            for combo in combos:
                try:
                    succ = tuple(ev.eval(e, env) for e in combo)
                except Exception:
                    continue
                full = list(s) + list(succ)
                if ev.eval(trans_body, dict(zip(trans_params, full))):
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
    small atoms have let the tree overfit.  Atoms not derivable from the
    grammar's Bool nonterminal are dropped.
    """
    from dataclasses import replace

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
    atoms = []
    for op, cmp in (("=", operator.eq), ("<", operator.lt), ("<=", operator.le)):
        for a, va in zip(terms, values):
            for b, vb in zip(terms, values):
                if a == b or va is None or vb is None:
                    continue
                vec = tuple(map(cmp, va, vb))
                if all(vec) or not any(vec):
                    continue
                atoms.append((Apply(op, (a, b), BOOL), vec))
    g = replace(target.grammar, start=bool_nt)
    return [(t, v) for t, v in atoms if oracle.check_conformance(t, g).kind == "valid"]


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
            en = Enumerator(grammar, envs, max_size=cap)
            # a pool the deadline cut short is still tried; the stage loop then stops
            enum_cache[cap] = _predicate_pool(en, bool_nt, cap, deadline=deadline)[0]
        return curated + enum_cache[cap]

    max_stage = max(1, (budget.max_pred_size - 1) // 2)
    # Cheap atom pools first, and within a pool shallow trees first: a
    # depth-limited fit with richer atoms beats a deep overfit chain.
    for stage in range(0, max_stage + 1):
        for depth in (3, 5, None):
            if deadline.expired():
                return Failure("budget-exhausted")
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
        acc = lits[0]
        for l in lits[1:]:
            acc = Apply("and", (acc, l), BOOL)
        disjuncts.append(acc)
    acc = disjuncts[0]
    for d in disjuncts[1:]:
        acc = Apply("or", (acc, d), BOOL)
    return acc


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
    seen = set()
    total = 0
    for s in range(1, k):
        for _, vec in en.bank(grammar.start, s):
            seen.add(vec)
            total += 1
            if total > MAX_NUGGET_BANK:
                raise BudgetExceeded(f"more than {MAX_NUGGET_BANK} terms below size {k}")
    out = []
    for term, vec in en.bank(grammar.start, k):
        total += 1
        if total > MAX_NUGGET_BANK:
            raise BudgetExceeded(f"more than {MAX_NUGGET_BANK} terms up to size {k}")
        if vec not in seen:
            out.append(term)
    return out
